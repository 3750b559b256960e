package perfhist

import (
	"math"
	"sort"

	"repro/internal/benchfmt"
)

// minStepShift is the minimum relative mean movement a changepoint needs
// on top of disjoint confidence intervals. Single-sample entries have
// degenerate (zero-width) CIs, so without a floor every jitter between
// two such entries would flag; 2% is well under any shift the repo has
// ever cared about and well over formatting noise.
const minStepShift = 0.02

// Point is one ledger entry's observation of a metric.
type Point struct {
	// Index is the entry's position in the ledger (0-based).
	Index     int
	Commit    string
	Timestamp string
	Dist      benchfmt.Dist
}

// Series is one (benchmark, metric) time series across the ledger.
type Series struct {
	Bench  string
	Metric string

	// Points holds one observation per ledger entry that carries the
	// metric, in ledger order.
	Points []Point

	// Changepoints are positions in Points (not ledger indices) where a
	// step landed: the mean moved by at least minStepShift relative to
	// the previous point and the two 95% CIs do not overlap.
	Changepoints []int
}

// Last returns the most recent point.
func (s *Series) Last() Point { return s.Points[len(s.Points)-1] }

// Trend computes every (benchmark, metric) time series a ledger holds:
// ns/op plus each custom metric, ordered by benchmark then metric name.
// This is the query the render layer (cmd/ccreport) and the EXPERIMENTS
// trajectory tables are built on.
func Trend(entries []Entry) []Series {
	type key struct{ bench, metric string }
	byKey := map[key]*Series{}
	var order []key
	for idx, e := range entries {
		for bi := range e.Report.Benchmarks {
			b := &e.Report.Benchmarks[bi]
			metrics := []string{benchfmt.MetricNs}
			names := make([]string, 0, len(b.Metrics))
			for m := range b.Metrics {
				names = append(names, m)
			}
			sort.Strings(names)
			metrics = append(metrics, names...)
			for _, m := range metrics {
				d, ok := b.Dist(m)
				if !ok {
					continue
				}
				k := key{b.Name, m}
				s := byKey[k]
				if s == nil {
					s = &Series{Bench: b.Name, Metric: m}
					byKey[k] = s
					order = append(order, k)
				}
				s.Points = append(s.Points, Point{
					Index: idx, Commit: e.Commit, Timestamp: e.Timestamp, Dist: d,
				})
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].bench != order[j].bench {
			return order[i].bench < order[j].bench
		}
		return order[i].metric < order[j].metric
	})
	out := make([]Series, 0, len(order))
	for _, k := range order {
		s := byKey[k]
		s.Changepoints = detectSteps(s.Points)
		out = append(out, *s)
	}
	return out
}

// detectSteps flags point i when the mean stepped relative to point i-1:
// the movement exceeds minStepShift of the previous mean AND the two 95%
// confidence intervals are disjoint. CI overlap is the noise guard — two
// multi-sample runs whose intervals cross are indistinguishable, however
// far apart their means drifted — which makes this the simple
// step-detection variant of changepoint analysis: it finds level shifts,
// by construction never flagging inside a noise band.
func detectSteps(points []Point) []int {
	var steps []int
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1].Dist, points[i].Dist
		var shift float64
		if prev.Mean != 0 {
			shift = math.Abs(cur.Mean-prev.Mean) / math.Abs(prev.Mean)
		} else if cur.Mean != 0 {
			shift = 1
		}
		if shift >= minStepShift && !cur.Overlaps(prev) {
			steps = append(steps, i)
		}
	}
	return steps
}

// Regression is one series' movement between its last two points.
type Regression struct {
	Bench  string
	Metric string
	From   Point // second-to-last point
	To     Point // last point
	Pct    float64

	// Significant is true when the two points' 95% CIs are disjoint —
	// the movement is distinguishable from noise.
	Significant bool
}

// WorstRegressions ranks every series that grew between its last two
// points (growth is always the bad direction for the tracked metrics),
// worst first; ties break by benchmark then metric name so the table is
// deterministic.
func WorstRegressions(series []Series) []Regression {
	var out []Regression
	for i := range series {
		s := &series[i]
		if len(s.Points) < 2 {
			continue
		}
		from, to := s.Points[len(s.Points)-2], s.Points[len(s.Points)-1]
		if from.Dist.Mean == 0 || to.Dist.Mean <= from.Dist.Mean {
			continue
		}
		out = append(out, Regression{
			Bench: s.Bench, Metric: s.Metric, From: from, To: to,
			Pct:         100 * (to.Dist.Mean - from.Dist.Mean) / from.Dist.Mean,
			Significant: !to.Dist.Overlaps(from.Dist),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}
