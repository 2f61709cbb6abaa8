package frame

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// hashReference is Frame.Hash as it was first written: two or three
// small writes per cell straight into the SHA-256 state. It defines the
// byte stream a dataset ref is the digest of, and is the oracle for
// FuzzHashMatchesReference.
func hashReference(f *Frame) string {
	h := sha256.New()
	var buf [8]byte
	writeUint := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeUint(uint64(len(s)))
		h.Write([]byte(s))
	}
	writeUint(uint64(f.NumCols()))
	writeUint(uint64(f.NumRows()))
	for _, c := range f.cols {
		writeStr(c.Name())
		writeUint(uint64(c.DType()))
		for i := 0; i < c.Len(); i++ {
			if c.IsNull(i) {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			switch c.DType() {
			case Float64:
				writeUint(math.Float64bits(c.floats[i]))
			case Int64:
				writeUint(uint64(c.ints[i]))
			case String:
				writeStr(c.strAt(i))
			case Bool:
				if c.bools[i] {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// otherRepresentation returns f with every String column switched to
// its other representation: dictionary columns become plain and plain
// ones are interned. Values, nulls and so Hash are unchanged.
func otherRepresentation(f *Frame) *Frame {
	cols := make([]*Series, f.NumCols())
	for j := range cols {
		c := f.ColAt(j)
		switch {
		case c.DType() != String:
			cols[j] = c
		case c.dict != nil:
			plain := NewString(c.Name(), c.Strings())
			for i := 0; i < c.Len(); i++ {
				if c.IsNull(i) {
					plain.SetNull(i)
				}
			}
			cols[j] = plain
		default:
			cols[j] = c.Intern()
		}
	}
	return MustNew(cols...)
}

// FuzzHashMatchesReference checks Frame.Hash against the per-cell
// reference writer over frames parsed from fuzzed CSV, in both String
// representations.
func FuzzHashMatchesReference(f *testing.F) {
	for _, s := range []string{
		"id,v\n1,2\n",
		"a,b,c,d\n1,0.5,x,true\n,,,\n-0,NaN,\"\",false\n",
		"g\nx\nX\n\" x\"\n\"x \"\nx\nX\n",
		"g,h\na,1\n\"\",2\nb,\n,4\n",
		"id,g\nu-001,x\nu-002,x\nu-003,y\nu-004,y\nu-005,x\n",
		"x\n-9223372036854775808\n9223372036854775807\n",
		"s\nNaN\nInf\n+Inf\n-Inf\n",
		"a,b\n\"x,y\",\"line\nbreak\"\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		fr, err := ReadCSVString(input)
		if err != nil {
			return
		}
		got, want := fr.Hash(), hashReference(fr)
		if got != want {
			t.Fatalf("Hash %s, reference %s: %q", got, want, input)
		}
		other := otherRepresentation(fr)
		if got, want := other.Hash(), hashReference(other); got != want {
			t.Fatalf("other representation: Hash %s, reference %s: %q", got, want, input)
		}
		if other.Hash() != fr.Hash() {
			t.Fatalf("representation changed the hash: %q", input)
		}
	})
}

// TestHashBlockBoundaries checks the block writer at buffer sizes from
// the smallest it accepts up, so every item of the golden frames
// straddles a block boundary somewhere: the digest must not depend on
// where the blocks break.
func TestHashBlockBoundaries(t *testing.T) {
	for name, f := range goldenHashFrames() {
		want := hashReference(f)
		for _, size := range []int{9, 10, 11, 16, 17, 63, 64, 65, 100, 4099} {
			if got := f.hashWith(make([]byte, 0, size)); got != want {
				t.Errorf("%s with %d-byte blocks: %s, want %s", name, size, got, want)
			}
		}
	}
}
