package bench

import (
	"fmt"
	"io"
)

// RunAA measures the benchmark against itself: for every workload, two
// sets (A and B) of n untraced runs each, alternating A, B, A, B so that
// drift in the machine falls on both, every run with a seed of its own.
// Per workload and metric it prints both medians, the gap between them as
// a share of A's, and each set's quartile spread, against the metric's
// bound. Two things fail the comparison: B's median worse than A's by more
// than half the bound, and a spread above the bound (setup_s excepted: a
// process start is a single draw however long the window, so it is gated
// on its medians only). A spread above a third of the bound is marked as
// wide, which is a warning that the bound has little room, not a failure.
// The return value says whether nothing failed and every run was correct.
func RunAA(s *Session, workloads []Workload, n, seconds int, out io.Writer) (bool, error) {
	allOK := true
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			res, err := RunEndToEnd(s, w, uint64(i+1), seconds)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				allOK = false
				fmt.Fprintf(out, "%s run %d: incorrect (%d of %d failed): %s\n",
					w.Name, i+1, res.Failed, res.Attempted, res.FirstErr)
			}
			// Every run made is shown, not only what the medians keep.
			fmt.Fprintf(out, "%s %c seed=%d", w.Name, 'A'+rune(i%2), i+1)
			for _, d := range EndToEnd {
				v := res.Metrics[d.Name].Value
				sets[i%2][d.Name] = append(sets[i%2][d.Name], v)
				fmt.Fprintf(out, " %s=%.4g", d.Name, v)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%s: 2 sets of %d runs, %d s windows\n", w.Name, n, seconds)
		fmt.Fprintf(out, "  %-18s %14s %14s %8s %9s %9s %7s\n",
			"metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
		for _, d := range EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := Median(a), Median(b)
			gap := 0.0
			if ma != 0 {
				gap = (mb - ma) / ma
			}
			worse := gap
			if d.Better == "higher" {
				worse = -gap
			}
			spread := max(Spread(a), Spread(b))
			if d.Name == "setup_s" {
				spread = 0
			}
			mark := ""
			switch {
			case worse > d.Bound/2:
				mark, allOK = "  FAIL: medians differ by more than half the bound", false
			case spread > d.Bound:
				mark, allOK = "  FAIL: spread above the bound", false
			case spread > d.Bound/3:
				mark = "  wide: spread above a third of the bound"
			}
			fmt.Fprintf(out, "  %-18s %14.4f %14.4f %+7.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				d.Name, ma, mb, gap*100, Spread(a)*100, Spread(b)*100, d.Bound*100, mark)
		}
	}
	return allOK, nil
}
