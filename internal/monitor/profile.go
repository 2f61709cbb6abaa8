package monitor

import (
	"fmt"
	"math"
	"time"

	"github.com/responsible-data-science/rds/internal/exec"
	"github.com/responsible-data-science/rds/internal/frame"
)

// BaselineProfile is the precomputed drift state of a pinned baseline
// window. DetectDrift re-derives everything it needs from the baseline
// frame on every window — a full exec-sharded sort per numeric column
// and a level count per categorical column, over data that never
// changes once pinned. The profile computes that state exactly once,
// at pin time: per numeric column the sorted finite sample, the PSI
// bin edges and baseline bin counts, and the summary moments; per
// categorical column the level counts. DetectDriftProfiled then scores
// each window against the profile, paying only for the current
// window's scan — drift cost drops from O(baseline · windows) to
// O(baseline + windows).
//
// A profile is immutable after construction and safe for concurrent
// readers.
type BaselineProfile struct {
	cfg  DriftConfig
	rows int
	cols []profileColumn

	build time.Duration
}

// profileColumn is one column's precomputed baseline state.
type profileColumn struct {
	name    string
	present bool // the column exists in the baseline frame
	numeric bool
	dtype   frame.DType

	// Numeric state: the exec-merged sorted finite sample, the PSI
	// quantile edges over it, the baseline bin counts those edges
	// induce, and the summary moments of that finite sample (nil when
	// the column has no finite values).
	sorted  []float64
	edges   []float64
	hist    []float64
	moments *exec.Moments

	// Categorical state: the exec-merged level counts.
	levels *exec.Levels
}

// NewBaselineProfile scans the baseline frame once and precomputes
// every per-column statistic DetectDriftProfiled needs. The column set
// and binning come from cfg exactly as in DetectDrift (zero values
// select the package defaults). The profile preserves DetectDrift's
// column order — cfg.Columns when given, the baseline's column order
// otherwise — so profiled reports list columns identically to
// recomputed ones.
func NewBaselineProfile(baseline *frame.Frame, cfg DriftConfig) (*BaselineProfile, error) {
	if baseline == nil || baseline.NumRows() == 0 {
		return nil, fmt.Errorf("monitor: baseline profile needs a non-empty baseline frame")
	}
	start := time.Now()
	cfg = cfg.withDefaults()
	names := cfg.Columns
	if len(names) == 0 {
		names = baseline.Names()
	}
	p := &BaselineProfile{cfg: cfg, rows: baseline.NumRows(), cols: make([]profileColumn, 0, len(names))}
	for _, name := range names {
		pc := profileColumn{name: name, present: baseline.Has(name)}
		if !pc.present {
			p.cols = append(p.cols, pc)
			continue
		}
		b := baseline.MustCol(name)
		pc.dtype = b.DType()
		switch pc.dtype {
		case frame.Float64, frame.Int64:
			pc.numeric = true
			vals := b.Floats()
			st, err := exec.RunOne(len(vals), exec.Options{}, exec.NewSorted(vals, true))
			if err != nil {
				return nil, fmt.Errorf("monitor: baseline profile %q: %w", name, err)
			}
			pc.sorted = st.(*exec.Sorted).Values()
			if len(pc.sorted) > 0 {
				pc.edges = psiEdges(pc.sorted, cfg.Bins)
				pc.hist = histSorted(pc.sorted, pc.edges)
				// Summary moments over the same finite sample the
				// drift scores use, so the payload's mean/min/max
				// describe exactly the profiled values (a raw-column
				// scan would let one NaN poison the mean).
				ms, err := exec.RunOne(len(pc.sorted), exec.Options{}, exec.NewMoments(pc.sorted))
				if err != nil {
					return nil, fmt.Errorf("monitor: baseline profile %q: %w", name, err)
				}
				pc.moments = ms.(*exec.Moments)
			}
		default:
			st, err := exec.RunOne(b.Len(), exec.Options{}, exec.NewLevelsSeries(b))
			if err != nil {
				return nil, fmt.Errorf("monitor: baseline profile %q: %w", name, err)
			}
			pc.levels = st.(*exec.Levels)
			// The profile outlives the baseline frame; detach so the
			// retained state is the level counts, not the raw column.
			pc.levels.Detach()
		}
		p.cols = append(p.cols, pc)
	}
	p.build = time.Since(start)
	return p, nil
}

// BuildTime reports how long the one-time profile build took.
func (p *BaselineProfile) BuildTime() time.Duration { return p.build }

// Rows reports the pinned baseline's row count.
func (p *BaselineProfile) Rows() int { return p.rows }

// Config returns the effective (defaulted) drift configuration the
// profile was built with.
func (p *BaselineProfile) Config() DriftConfig { return p.cfg }

// DetectDriftProfiled scores the shift of current against a
// precomputed baseline profile. It is the amortized counterpart of
// DetectDrift: for the same baseline, configuration, and current
// window the two produce bit-identical DriftReports (a property the
// package's invariance tests enforce), but the profiled path never
// touches the baseline data again — per window it sorts only the
// current column, bins it against the precomputed edges, and compares
// level counts against the precomputed histogram.
func DetectDriftProfiled(p *BaselineProfile, current *frame.Frame) (*DriftReport, error) {
	if p == nil {
		return nil, fmt.Errorf("monitor: drift detection needs a baseline profile")
	}
	if current == nil || current.NumRows() == 0 {
		return nil, fmt.Errorf("monitor: drift detection needs non-empty baseline and current frames")
	}
	rep := &DriftReport{}
	for i := range p.cols {
		pc := &p.cols[i]
		if !pc.present || !current.Has(pc.name) {
			continue
		}
		c := current.MustCol(pc.name)
		cd := ColumnDrift{Column: pc.name, KSPValue: 1}
		if pc.numeric {
			if ct := c.DType(); ct != frame.Float64 && ct != frame.Int64 {
				return nil, fmt.Errorf("monitor: drift: column %q changed type %s -> %s since the baseline",
					pc.name, pc.dtype, ct)
			}
			// An empty baseline sample (all-NaN column) can never be
			// scored; skip before paying the current window's sort.
			if len(pc.sorted) == 0 {
				continue
			}
			cv, err := sortedFinite(c)
			if err != nil {
				return nil, err
			}
			if len(cv) == 0 {
				continue
			}
			cd.PSI = psi(pc.hist, histSorted(cv, pc.edges))
			cd.KS = ksStatistic(pc.sorted, cv)
			cd.KSPValue = ksPValue(cd.KS, len(pc.sorted), len(cv))
		} else {
			st, err := exec.RunOne(c.Len(), exec.Options{}, exec.NewLevelsSeries(c))
			if err != nil {
				return nil, fmt.Errorf("monitor: drift levels: %w", err)
			}
			cd.PSI = psiLevels(pc.levels, st.(*exec.Levels))
		}
		rep.add(cd, p.cfg)
	}
	return rep, nil
}

// ProfileInfo is the JSON summary of a pinned baseline profile,
// surfaced in the monitor history payload so operators can see what
// each window is being scored against and what the one-time build
// cost.
type ProfileInfo struct {
	// Rows is the pinned baseline window's row count.
	Rows int `json:"rows"`
	// Columns / NumericColumns / CategoricalColumns count the profiled
	// columns by kind (columns named in the config but absent from the
	// baseline are not counted).
	Columns            int `json:"columns"`
	NumericColumns     int `json:"numeric_columns"`
	CategoricalColumns int `json:"categorical_columns"`
	// Bins is the PSI histogram resolution the edges were computed at.
	Bins int `json:"bins"`
	// BuildMillis is the one-time profile build cost in milliseconds.
	BuildMillis float64 `json:"build_millis"`
	// ColumnProfiles summarizes each profiled column.
	ColumnProfiles []ProfileColumnInfo `json:"column_profiles,omitempty"`
}

// ProfileColumnInfo summarizes one profiled column: sample size plus
// the precomputed moments (numeric) or level count (categorical).
type ProfileColumnInfo struct {
	// Column is the column name.
	Column string `json:"column"`
	// Kind is "numeric" or "categorical".
	Kind string `json:"kind"`
	// Values is the number of profiled values: finite values for a
	// numeric column, counted rows for a categorical one.
	Values int `json:"values"`
	// Levels is the categorical level count (0 for numeric columns).
	Levels int `json:"levels,omitempty"`
	// Mean / StdDev / Min / Max are the numeric column's precomputed
	// moments. Pointers so that a legitimate zero (a mean of exactly 0,
	// a min of 0) still appears in the payload: the field is absent
	// only when the moment is not finite (empty or single-value
	// samples) or the column is categorical.
	Mean   *float64 `json:"mean,omitempty"`
	StdDev *float64 `json:"std_dev,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// Info renders the profile's JSON summary. Non-finite moments are
// omitted so the payload always marshals.
func (p *BaselineProfile) Info() ProfileInfo {
	info := ProfileInfo{
		Rows:        p.rows,
		Bins:        p.cfg.Bins,
		BuildMillis: float64(p.build) / float64(time.Millisecond),
	}
	for i := range p.cols {
		pc := &p.cols[i]
		if !pc.present {
			continue
		}
		info.Columns++
		ci := ProfileColumnInfo{Column: pc.name}
		if pc.numeric {
			info.NumericColumns++
			ci.Kind = "numeric"
			ci.Values = len(pc.sorted)
			if pc.moments != nil {
				ci.Mean = finitePtr(pc.moments.Mean())
				ci.StdDev = finitePtr(pc.moments.StdDev())
				ci.Min = finitePtr(pc.moments.Min)
				ci.Max = finitePtr(pc.moments.Max)
			}
		} else {
			info.CategoricalColumns++
			ci.Kind = "categorical"
			ci.Values = int(pc.levels.Total())
			ci.Levels = len(pc.levels.Counts)
		}
		info.ColumnProfiles = append(info.ColumnProfiles, ci)
	}
	return info
}

// finitePtr boxes a finite value and drops NaN/Inf to nil, so
// summaries stay JSON-marshalable while a real zero survives.
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
