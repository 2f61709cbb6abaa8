// JSON encoding for fairness reports. Zero-denominator metrics are
// deliberately NaN in memory ("NaN when nothing was predicted
// positive" — see internal/ml), but encoding/json refuses non-finite
// floats, so a tag-free Report made a whole FACTReport unserializable
// the moment one group had zero predicted positives. These marshalers
// keep the in-memory semantics and encode non-finite values as null
// (JSON has no NaN/Inf literal); null decodes back to NaN. The wire
// keys are the Go field names, byte-identical to the tag-free
// encoding for finite reports.

package fairness

import (
	"bytes"
	"encoding/json"
	"math"
)

// nanFloat is a float64 whose JSON encoding survives non-finite
// values: NaN and ±Inf encode as null, and null decodes as NaN.
type nanFloat float64

func (f nanFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func (f *nanFloat) UnmarshalJSON(b []byte) error {
	if bytes.Equal(bytes.TrimSpace(b), []byte("null")) {
		*f = nanFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = nanFloat(v)
	return nil
}

// groupStatsWire mirrors GroupStats field for field so the key names
// and order match the struct's natural encoding.
type groupStatsWire struct {
	Group        string
	N            int
	BaseRate     nanFloat
	PositiveRate nanFloat
	TPR          nanFloat
	FPR          nanFloat
	Precision    nanFloat
}

// MarshalJSON encodes the stats with non-finite rates as null.
func (g GroupStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(groupStatsWire{
		Group:        g.Group,
		N:            g.N,
		BaseRate:     nanFloat(g.BaseRate),
		PositiveRate: nanFloat(g.PositiveRate),
		TPR:          nanFloat(g.TPR),
		FPR:          nanFloat(g.FPR),
		Precision:    nanFloat(g.Precision),
	})
}

// UnmarshalJSON decodes stats written by MarshalJSON; null rates
// decode as NaN.
func (g *GroupStats) UnmarshalJSON(b []byte) error {
	var w groupStatsWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*g = GroupStats{
		Group:        w.Group,
		N:            w.N,
		BaseRate:     float64(w.BaseRate),
		PositiveRate: float64(w.PositiveRate),
		TPR:          float64(w.TPR),
		FPR:          float64(w.FPR),
		Precision:    float64(w.Precision),
	}
	return nil
}

// reportWire mirrors Report; the group stats route through the
// GroupStats marshalers above.
type reportWire struct {
	Protected GroupStats
	Reference GroupStats

	StatisticalParityDifference nanFloat
	DisparateImpact             nanFloat
	EqualOpportunityDifference  nanFloat
	EqualizedOddsDifference     nanFloat
	PredictiveParityDifference  nanFloat
}

// MarshalJSON encodes the report with non-finite metrics as null.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportWire{
		Protected:                   r.Protected,
		Reference:                   r.Reference,
		StatisticalParityDifference: nanFloat(r.StatisticalParityDifference),
		DisparateImpact:             nanFloat(r.DisparateImpact),
		EqualOpportunityDifference:  nanFloat(r.EqualOpportunityDifference),
		EqualizedOddsDifference:     nanFloat(r.EqualizedOddsDifference),
		PredictiveParityDifference:  nanFloat(r.PredictiveParityDifference),
	})
}

// UnmarshalJSON decodes a report written by MarshalJSON; null metrics
// decode as NaN.
func (r *Report) UnmarshalJSON(b []byte) error {
	var w reportWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Report{
		Protected:                   w.Protected,
		Reference:                   w.Reference,
		StatisticalParityDifference: float64(w.StatisticalParityDifference),
		DisparateImpact:             float64(w.DisparateImpact),
		EqualOpportunityDifference:  float64(w.EqualOpportunityDifference),
		EqualizedOddsDifference:     float64(w.EqualizedOddsDifference),
		PredictiveParityDifference:  float64(w.PredictiveParityDifference),
	}
	return nil
}
