package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// checkState reports why a parsed histogram state is inconsistent: Merge
// and Quantile rely on non-negative buckets that sum to Count.
func checkState(st HistogramState) error {
	var sum int64
	for i, n := range st.Buckets {
		if n < 0 {
			return fmt.Errorf("bucket %d holds %d", i, n)
		}
		if n > math.MaxInt64-sum {
			return fmt.Errorf("buckets overflow at bucket %d", i)
		}
		sum += n
	}
	if sum != st.Count {
		return fmt.Errorf("buckets sum to %d, count is %d", sum, st.Count)
	}
	return nil
}

// FuzzParseText feeds arbitrary pages to the exposition parser, which
// reads scraped network bytes. It must not panic, every histogram state
// it yields must be consistent, and re-rendering what it parsed must be a
// fixed point of WriteText followed by ParseText.
func FuzzParseText(f *testing.F) {
	var page strings.Builder
	if err := sampleRegistry().Snapshot().WriteText(&page); err != nil {
		f.Fatal(err)
	}
	f.Add(page.String())
	f.Add("histogram h count=5 sum=1 min_ns=1 max_ns=1 buckets=3:-2")
	f.Add("histogram h2 count=5 sum=10 min_ns=1 max_ns=3 buckets=1:1,2:1")
	// Durations just below a unit boundary and at the top of the range.
	f.Add("uptime 999.96us")
	f.Add("uptime 999.996ms")
	f.Add("uptime 2562047h47m16.854775807s")
	f.Fuzz(func(t *testing.T, page string) {
		// Stay well under the parser's 1 MiB line limit, which a
		// re-rendered line (digest fields added) could otherwise cross.
		if len(page) > 64<<10 {
			return
		}
		e, _ := ParseText(strings.NewReader(page))
		for name, st := range e.HistogramStates {
			if err := checkState(st); err != nil {
				t.Fatalf("histogram %q: %v", name, err)
			}
		}
		var first strings.Builder
		if err := e.WriteText(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseText(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("re-parsing rendered page: %v", err)
		}
		var second strings.Builder
		if err := again.WriteText(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("WriteText/ParseText is not a fixed point:\n%s\nre-rendered as\n%s", first.String(), second.String())
		}
	})
}
