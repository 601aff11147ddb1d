package scan

import "testing"

// Parse and ParseAggregate are the only way a string becomes a scan
// (`colscan -where/-agg`, the scan server's POST /query), so they take
// arbitrary input. Two properties: they never panic, and whatever they
// accept prints (String) to a form that parses back to the same print —
// Spec.Equal and NewUnion's member dedup compare predicates by that print.
// Runs the seeds under plain `go test`; explores further under
// `go test -fuzz FuzzParse` and `-fuzz FuzzParseAggregate`.

func FuzzParse(f *testing.F) {
	for _, p := range roundTripPreds() {
		f.Add(p.String())
	}
	for _, src := range parseGood {
		f.Add(src)
	}
	for _, src := range parseBad {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("Parse(%q) printed %q, which reprints as %q", src, printed, again)
		}
	})
}

func FuzzParseAggregate(f *testing.F) {
	for _, src := range []string{
		// The aggregate tests' specs.
		"count", "count(a)", "min(s)", "max(b)", "sum(b)",
		"count,count(x)",
		"min(x),max(x),sum(x)",
		"count,sum(x) group by s",
		"count(f),avg(f),min(s) group by k",
		"count group by k",
		// Malformed ones.
		"",
		"count group by",
		"count group by a b",
		"min()",
		"min(x",
		"median(x)",
		"count,,sum(x)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParseAggregate(src)
		if err != nil {
			return
		}
		printed := a.String()
		back, err := ParseAggregate(printed)
		if err != nil {
			t.Fatalf("ParseAggregate(%q) printed %q, which does not parse: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("ParseAggregate(%q) printed %q, which reprints as %q", src, printed, again)
		}
	})
}
