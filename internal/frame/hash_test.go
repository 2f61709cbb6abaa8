package frame

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHashDeterministicAndSensitive(t *testing.T) {
	base := func() *Frame {
		return MustNew(
			NewFloat64("x", []float64{1, 2, 3}),
			NewString("g", []string{"a", "b", "a"}),
		)
	}
	f1, f2 := base(), base()
	if f1.Hash() != f2.Hash() {
		t.Fatal("identical frames must hash identically")
	}

	changedVal := MustNew(
		NewFloat64("x", []float64{1, 2, 4}),
		NewString("g", []string{"a", "b", "a"}),
	)
	if changedVal.Hash() == f1.Hash() {
		t.Error("value change must change the hash")
	}

	changedName := MustNew(
		NewFloat64("y", []float64{1, 2, 3}),
		NewString("g", []string{"a", "b", "a"}),
	)
	if changedName.Hash() == f1.Hash() {
		t.Error("column rename must change the hash")
	}

	reordered := MustNew(
		NewString("g", []string{"a", "b", "a"}),
		NewFloat64("x", []float64{1, 2, 3}),
	)
	if reordered.Hash() == f1.Hash() {
		t.Error("column reorder must change the hash")
	}
}

func TestHashNullsDistinctFromZero(t *testing.T) {
	zero := MustNew(NewFloat64("x", []float64{0, 1}))
	withNull := MustNew(NewFloat64("x", []float64{0, 1}))
	withNull.MustCol("x").SetNull(0)
	if zero.Hash() == withNull.Hash() {
		t.Error("null must hash differently from zero")
	}
}

// goldenHashFrames builds the frames TestHashGolden pins, by name.
func goldenHashFrames() map[string]*Frame {
	withNulls := func(s *Series, rows ...int) *Series {
		for _, i := range rows {
			s.SetNull(i)
		}
		return s
	}
	dict, err := NewStringDict("d", []int32{0, 1, 0, 2, 1}, []string{"a", "", "level-c"})
	if err != nil {
		panic(err)
	}

	// 100 KB: longer than any block Hash buffers.
	long := strings.Repeat("0123456789", 10_000)

	// A stream of several hundred KB: many blocks, every dtype, nulls.
	const n = 20_000
	fs, is, ss, bs := make([]float64, n), make([]int64, n), make([]string, n), make([]bool, n)
	levels := []string{"alpha", "", "b", "gamma-delta"}
	for i := 0; i < n; i++ {
		fs[i] = float64(i)/7 - 1000
		is[i] = int64(i)*int64(i)*7919 - 1<<40
		ss[i] = levels[i%len(levels)]
		bs[i] = i%3 == 0
	}
	many := MustNew(
		withNulls(NewFloat64("f", fs), 5, 17, 19_999),
		withNulls(NewInt64("i", is), 0, 8191, 8192),
		withNulls(NewString("s", ss).Intern(), 1, 2, 40),
		withNulls(NewString("id", func() []string {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = "row-" + strconv.Itoa(i*31)
			}
			return ids
		}()), 3),
		withNulls(NewBool("b", bs), 4, 10_000),
	)

	return map[string]*Frame{
		"empty":     MustNew(),
		"zero-rows": MustNew(NewFloat64("f", nil), NewInt64("i", nil), NewString("s", nil), NewBool("b", nil)),
		"dtypes": MustNew(
			NewFloat64("f", []float64{1.5, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300}),
			NewInt64("i", []int64{math.MinInt64, -1, 0, 1, 42, 1 << 40, math.MaxInt64}),
			NewString("s", []string{"a", "", "héllo", "x,y", "line\nbreak", " pad ", "z"}),
			NewBool("b", []bool{true, false, true, true, false, false, true}),
		),
		"nulls": MustNew(
			withNulls(NewFloat64("f", []float64{1, 0, 2, 0}), 1, 3),
			withNulls(NewInt64("i", []int64{0, 7, 0, 9}), 0, 2),
			withNulls(NewBool("b", []bool{false, true, false, true}), 0, 1),
			withNulls(NewString("s", []string{"", "", "x", ""}), 1, 3),
		),
		"dict-and-plain": MustNew(
			dict,
			withNulls(NewString("dn", []string{"a", "", "a", "level-c", ""}).Intern(), 1),
			withNulls(NewString("p", []string{"a", "", "a", "level-c", ""}), 4),
		),
		"long": MustNew(
			NewString(long, []string{"short", long, "", long + "!"}),
			NewInt64("i", []int64{1, 2, 3, 4}),
		),
		"many-blocks": many,
	}
}

// TestHashGolden pins Frame.Hash digests. A dataset's ref is its
// frame's digest and a state directory restores a record only if its
// frame hashes to that ref again, so the byte stream Hash feeds SHA-256
// must never change: a failure here means every stored ref is orphaned.
func TestHashGolden(t *testing.T) {
	want := map[string]string{
		"empty":          "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
		"zero-rows":      "e09ff7ff4bec32bc469bda93d5b1defc34ead2b1b2c1d9d6df97c14f303bfc53",
		"dtypes":         "e1340eb2b96c44cf8abe91a072572806cdd5d50910ae685e34d8acd226d95103",
		"nulls":          "c4b7ddbd108e64fc9c4524998ca7ceb62ff1cd9f6f6cdac1457195f5db8e73fc",
		"dict-and-plain": "80fb265e82ddf277003e7361679974d3168e519a8ee14ea6c3c844623d7f2d86",
		"long":           "75bf046b8f3c584c0dcc290c952c7aeb0250f0551cc4ab024dd0e9d8a631c180",
		"many-blocks":    "7b3738bb6a8718f04adb9f726ac843c346f7c895d93306638df567bb3dd6c714",
	}
	frames := goldenHashFrames()
	if len(frames) != len(want) {
		t.Fatalf("%d golden frames, %d digests", len(frames), len(want))
	}
	for name, f := range frames {
		if got := f.Hash(); got != want[name] {
			t.Errorf("%s: Hash = %s, want %s", name, got, want[name])
		}
	}
}
