package main

import (
	"bytes"
	"fmt"
	"net/netip"

	"dnscentral/internal/astrie"
	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/entrada"
	"dnscentral/internal/workload"
)

// maxProblems caps how many mismatches one check reports; the first few
// say what is wrong, the rest would only flood the output.
const maxProblems = 8

type problems []string

func (p *problems) addf(format string, args ...any) {
	if len(*p) < maxProblems {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// checkTruth compares an analysis of a generated capture with the
// generator's own ground truth: totals, per-provider queries, IPv6, TCP
// and junk counts, query-type counts and the resolver set, in both the
// aggregates and the report built from them.
func checkTruth(ag *entrada.Aggregates, rep *entrada.Report, gt *workload.GroundTruth) []string {
	var p problems
	if ag.Total != gt.Queries {
		p.addf("total queries: analyzer %d, generator %d", ag.Total, gt.Queries)
	}
	if rep.TotalQueries != gt.Queries {
		p.addf("report total queries: %d, generator %d", rep.TotalQueries, gt.Queries)
	}
	for _, prov := range astrie.CloudProviders {
		pa := ag.Provider(prov)
		if pa.Queries != gt.ByProvider[prov] {
			p.addf("%s queries: analyzer %d, generator %d", prov, pa.Queries, gt.ByProvider[prov])
		}
		if pa.V6 != gt.V6Queries[prov] {
			p.addf("%s IPv6 queries: analyzer %d, generator %d", prov, pa.V6, gt.V6Queries[prov])
		}
		if pa.TCP != gt.TCPQueries[prov] {
			p.addf("%s TCP queries: analyzer %d, generator %d", prov, pa.TCP, gt.TCPQueries[prov])
		}
		if pa.Junk != gt.JunkQueries[prov] {
			p.addf("%s junk queries: analyzer %d, generator %d", prov, pa.Junk, gt.JunkQueries[prov])
		}
		if got := rep.Providers[prov.String()].Queries; got != gt.ByProvider[prov] {
			p.addf("report %s queries: %d, generator %d", prov, got, gt.ByProvider[prov])
		}
	}
	other := ag.Provider(astrie.ProviderOther)
	if other.Queries != gt.OtherQueries {
		p.addf("other queries: analyzer %d, generator %d", other.Queries, gt.OtherQueries)
	}
	if other.Junk != gt.OtherJunk {
		p.addf("other junk queries: analyzer %d, generator %d", other.Junk, gt.OtherJunk)
	}
	for typ, want := range gt.ByType {
		var got uint64
		for _, pa := range ag.ByProvider {
			got += pa.ByType[typ]
		}
		if got != want {
			p.addf("qtype %s: analyzer %d, generator %d", typ, got, want)
		}
	}
	if len(ag.AllResolvers) != len(gt.ResolverSet) || rep.Resolvers != len(gt.ResolverSet) {
		p.addf("resolvers: analyzer %d, report %d, generator %d",
			len(ag.AllResolvers), rep.Resolvers, len(gt.ResolverSet))
	}
	for a := range gt.ResolverSet {
		if _, ok := ag.AllResolvers[a]; !ok {
			p.addf("resolver %s missed by the analyzer", a)
			break
		}
	}
	return p
}

// checkSameBytes reports a problem when two renderings that must be
// byte-identical differ, naming the first differing offset.
func checkSameBytes(what string, a, b []byte) []string {
	if bytes.Equal(a, b) {
		return nil
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return []string{fmt.Sprintf("%s differ at byte %d (%d vs %d bytes)", what, i, len(a), len(b))}
}

// checkWindows verifies the follow-mode window series against the
// report: the windows' query counts sum to the report's total.
func checkWindows(windowQueries []uint64, total uint64) []string {
	var sum uint64
	for _, q := range windowQueries {
		sum += q
	}
	if sum != total {
		return []string{fmt.Sprintf("window query counts sum to %d, report total %d", sum, total)}
	}
	return nil
}

// checkAnswer verifies one recursor answer to a stub query: it echoes
// the query's ID and question, and its rcode and sections match what the
// authoritative engine answers directly for that question, except that
// TTLs may only be lower (a cache may age them, never extend them).
func checkAnswer(answer []byte, id uint16, qname string, qtype dnswire.Type, ref *authserver.Engine) error {
	got, err := dnswire.Unpack(answer)
	if err != nil {
		return fmt.Errorf("answer for %s: unparseable: %v", qname, err)
	}
	if got.Header.ID != id {
		return fmt.Errorf("answer for %s: id %d, query id %d", qname, got.Header.ID, id)
	}
	if !got.Header.Response {
		return fmt.Errorf("answer for %s: QR bit clear", qname)
	}
	if len(got.Questions) != 1 || !sameName(got.Questions[0].Name, qname) || got.Questions[0].Type != qtype {
		return fmt.Errorf("answer for %s: question %v not echoed", qname, got.Questions)
	}
	q := dnswire.NewQuery(id, qname, qtype)
	r := ref.Handle(q, netip.AddrFrom4([4]byte{127, 0, 0, 1}), false)
	if r == nil {
		return fmt.Errorf("answer for %s: reference engine dropped the query", qname)
	}
	// Round-trip the reference through the wire format, so both sides
	// are compared in the form a stub decodes.
	wire, err := authserver.PackResponse(r, q, false)
	if err != nil {
		return fmt.Errorf("answer for %s: packing the reference: %v", qname, err)
	}
	want, err := dnswire.Unpack(wire)
	if err != nil {
		return fmt.Errorf("answer for %s: reference unparseable: %v", qname, err)
	}
	if got.Header.RCode != want.Header.RCode {
		return fmt.Errorf("answer for %s: rcode %s, authoritative %s", qname, got.Header.RCode, want.Header.RCode)
	}
	for _, sec := range []struct {
		name      string
		got, want []dnswire.RR
	}{
		{"answer", got.Answers, want.Answers},
		{"authority", got.Authority, want.Authority},
		{"additional", got.Additional, want.Additional},
	} {
		if err := sameRRs(sec.got, sec.want); err != nil {
			return fmt.Errorf("answer for %s: %s section: %v", qname, sec.name, err)
		}
	}
	return nil
}

// sameRRs compares two sections record by record: same owner, type,
// class and data, and a TTL no higher than the authoritative one.
func sameRRs(got, want []dnswire.RR) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, authoritative %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !sameName(g.Name, w.Name) || g.Class != w.Class || g.Data.Type() != w.Data.Type() ||
			g.Data.String() != w.Data.String() {
			return fmt.Errorf("record %d is %v, authoritative %v", i, g, w)
		}
		if g.TTL > w.TTL {
			return fmt.Errorf("record %d TTL %d above authoritative %d", i, g.TTL, w.TTL)
		}
	}
	return nil
}

func sameName(a, b string) bool {
	return dnswire.CanonicalName(a) == dnswire.CanonicalName(b)
}
