package fsjson

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/contract"
	"github.com/responsible-data-science/rds/internal/synth"
)

// open opens a store at dir, failing the test on error.
func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestContract runs the cross-adapter contract suite against the
// filesystem adapter. Reopen genuinely reopens the state directory —
// the restart path every durability property rides on — and Corrupt
// flips a byte in the record file on disk.
func TestContract(t *testing.T) {
	contract.Run(t, contract.Adapter{
		Make: func(t *testing.T) store.Store { return open(t, t.TempDir()) },
		Reopen: func(t *testing.T, s store.Store) store.Store {
			return open(t, s.(*Store).Root())
		},
		Corrupt: func(t *testing.T, s store.Store, kind store.Kind, id string) store.Store {
			fs := s.(*Store)
			path := filepath.Join(fs.Root(), fs.gen, string(kind), recordFile(id))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading record to corrupt: %v", err)
			}
			// Flip one byte inside the payload region.
			i := bytes.Index(raw, []byte(`"payload"`))
			if i < 0 || i+12 >= len(raw) {
				t.Fatalf("no payload region to corrupt in %s", path)
			}
			raw[i+12] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatalf("writing corrupted record: %v", err)
			}
			return open(t, fs.Root())
		},
	})
}

// TestFreshBootEmptyDir pins the defined behavior for empty state: a
// missing directory and an existing-but-empty directory are both a
// fresh boot, not an error.
func TestFreshBootEmptyDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "never-created")
	s := open(t, missing)
	items, err := s.List(store.KindMonitor)
	if err != nil || len(items) != 0 {
		t.Fatalf("fresh store lists (%v, %v), want empty", items, err)
	}

	empty := t.TempDir() // exists, no contents
	s2 := open(t, empty)
	if err := s2.Save(store.KindMonitor, "m1", []byte(`{"a":1}`)); err != nil {
		t.Fatalf("Save on fresh store: %v", err)
	}
}

// TestTruncatedCurrentRefused pins the defined behavior for a
// truncated CURRENT pointer: refuse to start, naming the file.
func TestTruncatedCurrentRefused(t *testing.T) {
	dir := t.TempDir()
	open(t, dir)
	for name, contents := range map[string]string{
		"empty":    "",
		"garbage":  "not-a-generation\n",
		"dangling": "gen-000099\n",
	} {
		t.Run(name, func(t *testing.T) {
			cur := filepath.Join(dir, currentFile)
			orig, err := os.ReadFile(cur)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(cur, orig, 0o644)
			if err := os.WriteFile(cur, []byte(contents), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir)
			if err == nil {
				t.Fatal("Open accepted a corrupt CURRENT file")
			}
			if !strings.Contains(err.Error(), currentFile) {
				t.Fatalf("error %q does not name the offending file", err)
			}
		})
	}
}

// TestTruncatedRecordRefused pins the defined behavior for an empty or
// truncated record file: Find and List refuse with ErrCorrupt naming
// the file, and a fresh Open still succeeds (corruption is surfaced at
// read time, where the caller knows which record it needed).
func TestTruncatedRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save(store.KindMonitor, "m1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, s.gen, string(store.KindMonitor), "m1.json")
	for name, truncate := range map[string]func([]byte) []byte{
		"empty":   func([]byte) []byte { return nil },
		"halfway": func(b []byte) []byte { return b[:len(b)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644)
			if err := os.WriteFile(path, truncate(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := open(t, dir)
			if _, _, err := s2.Find(store.KindMonitor, "m1"); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Find over truncated record: %v, want ErrCorrupt", err)
			} else if !strings.Contains(err.Error(), "m1.json") {
				t.Fatalf("error %q does not name the file", err)
			}
			if _, err := s2.List(store.KindMonitor); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("List over truncated record: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestUnrecognizedDirRefused proves Open will not adopt (or wipe) a
// directory that holds anything that is not state-dir shaped.
func TestUnrecognizedDirRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "precious.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "precious.txt") {
		t.Fatalf("Open adopted a foreign directory: %v", err)
	}
}

// TestFaultInjectedWriteLeavesPriorRecord proves the crash-safe write:
// when the data write fails partway (an error-injecting writer standing
// in for a full disk or a crash before rename), the half-written temp
// file never replaces the record and the previous contents survive —
// across a reopen, exactly as after a real crash.
func TestFaultInjectedWriteLeavesPriorRecord(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save(store.KindMonitor, "m1", []byte(`{"rev":1}`)); err != nil {
		t.Fatal(err)
	}

	prev := newWriter
	newWriter = func(f *os.File) interface{ Write([]byte) (int, error) } {
		return failingWriter{f: f, after: 10}
	}
	err := s.Save(store.KindMonitor, "m1", []byte(`{"rev":2}`))
	newWriter = prev
	if err == nil {
		t.Fatal("Save with a failing writer reported success")
	}

	for label, st := range map[string]*Store{"same-process": s, "reopened": open(t, dir)} {
		got, ok, ferr := st.Find(store.KindMonitor, "m1")
		if ferr != nil || !ok || !bytes.Contains(got, []byte(`"rev":1`)) {
			t.Fatalf("%s: previous record did not survive failed write: (%q, %v, %v)", label, got, ok, ferr)
		}
	}
}

// failingWriter writes `after` bytes then fails — a simulated crash in
// the middle of the payload.
type failingWriter struct {
	f     *os.File
	after int
}

func (w failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.after {
		p = p[:w.after]
	}
	n, _ := w.f.Write(p)
	return n, fmt.Errorf("injected write fault after %d bytes", n)
}

// TestCrashBetweenWriteAndRename simulates the other half of the
// fault: a complete temp file that was never renamed into place (the
// process died between write and rename). The record must read as its
// previous generation and Open must clear the debris.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save(store.KindMonitor, "m1", []byte(`{"rev":1}`)); err != nil {
		t.Fatal(err)
	}
	// Hand-craft the orphaned temp file a crash leaves behind.
	kindDir := filepath.Join(dir, s.gen, string(store.KindMonitor))
	orphan := filepath.Join(kindDir, tmpPrefix+"m1.json-12345")
	if err := os.WriteFile(orphan, []byte(`{"kind":"monitors","id":"m1","sha256":"bogus","payload":{"rev":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	got, ok, err := s2.Find(store.KindMonitor, "m1")
	if err != nil || !ok || !bytes.Contains(got, []byte(`"rev":1`)) {
		t.Fatalf("previous record did not survive orphaned temp file: (%q, %v, %v)", got, ok, err)
	}
	items, err := s2.List(store.KindMonitor)
	if err != nil || len(items) != 1 {
		t.Fatalf("orphaned temp file leaked into List: (%v, %v)", items, err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("Open left the orphaned temp file behind: %v", err)
	}
}

// TestOnDiskLayout pins the format state directories are written in —
// CURRENT naming gen-000001, one envelope per record at
// <gen>/<kind>/<id>.json carrying its payload's SHA-256 — so a state
// directory written by an earlier release opens without migration. A
// record written by hand in that layout reads back through the port,
// and saving it again rewrites the same bytes.
func TestOnDiskLayout(t *testing.T) {
	fresh := t.TempDir()
	open(t, fresh)
	if cur, err := os.ReadFile(filepath.Join(fresh, currentFile)); err != nil || string(cur) != "gen-000001\n" {
		t.Fatalf("fresh boot wrote CURRENT = (%q, %v), want \"gen-000001\\n\"", cur, err)
	}

	dir := t.TempDir()
	const payload = `{"name":"live","window_ms":60000}`
	sum := sha256.Sum256([]byte(payload))
	rec := fmt.Sprintf(`{"kind":"monitors","id":"mon-000001","sha256":"%s","payload":%s}`+"\n", hex.EncodeToString(sum[:]), payload)
	recPath := filepath.Join(dir, "gen-000001", "monitors", "mon-000001.json")
	if err := os.MkdirAll(filepath.Dir(recPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("gen-000001\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	got, ok, err := s.Find(store.KindMonitor, "mon-000001")
	if err != nil || !ok || string(got) != payload {
		t.Fatalf("Find over a hand-written record = (%q, %v, %v), want %q", got, ok, err, payload)
	}
	if err := s.Save(store.KindMonitor, "mon-000001", []byte(payload)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if raw, err := os.ReadFile(recPath); err != nil || string(raw) != rec {
		t.Fatalf("Save wrote %q (err %v), want %q", raw, err, rec)
	}
}

// TestOpenFollowsCurrent proves CURRENT is the only generation Open
// reads: a generation directory it does not name — one an earlier
// release could leave behind — stays invisible to Find and List, and
// Save writes into the named generation.
func TestOpenFollowsCurrent(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save(store.KindMonitor, "m1", []byte(`{"rev":1}`)); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, genName(2), string(store.KindMonitor))
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	for id, doc := range map[string]string{"m1": `{"rev":2}`, "m2": `{"rev":2}`} {
		data, err := encodeEnvelope(store.KindMonitor, id, []byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stray, recordFile(id)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir)
	if got, ok, err := s2.Find(store.KindMonitor, "m1"); err != nil || !ok || !bytes.Contains(got, []byte(`"rev":1`)) {
		t.Fatalf("Find read past CURRENT: (%q, %v, %v)", got, ok, err)
	}
	if items, err := s2.List(store.KindMonitor); err != nil || len(items) != 1 || items[0].ID != "m1" {
		t.Fatalf("List read past CURRENT: (%v, %v)", items, err)
	}
	if err := s2.Save(store.KindMonitor, "m3", []byte(`{"rev":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, genName(1), string(store.KindMonitor), recordFile("m3"))); err != nil {
		t.Fatalf("Save did not write into the generation CURRENT names: %v", err)
	}
}

// TestRootDebrisCleared covers crash debris at the state dir's root,
// where CURRENT is written: Open removes a temp file there instead of
// refusing the directory as foreign, and keeps following CURRENT.
func TestRootDebrisCleared(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save(store.KindMonitor, "m1", []byte(`{"rev":1}`)); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, tmpPrefix+currentFile+"-12345")
	if err := os.WriteFile(debris, []byte(genName(2)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if got, ok, err := s2.Find(store.KindMonitor, "m1"); err != nil || !ok || !bytes.Contains(got, []byte(`"rev":1`)) {
		t.Fatalf("record unreadable after clearing root debris: (%q, %v, %v)", got, ok, err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("Open left the root temp file behind: %v", err)
	}
}

// TestMissingCurrentRefused pins the refusal for a generation without
// a CURRENT file — what a crash during first initialization leaves:
// Open refuses, naming CURRENT, and leaves the generation's records in
// place for the operator.
func TestMissingCurrentRefused(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save(store.KindMonitor, "m1", []byte(`{"rev":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open accepted a generation without a CURRENT file")
	}
	if !strings.Contains(err.Error(), currentFile) {
		t.Fatalf("error %q does not name the missing file", err)
	}
	if _, err := os.Stat(filepath.Join(dir, genName(1), string(store.KindMonitor), recordFile("m1"))); err != nil {
		t.Fatalf("refused Open touched the generation's records: %v", err)
	}
}

// TestEnvelopeMatchesMarshal checks that the envelope written around
// the canonical payload is byte for byte what json.Marshal writes for
// it, on the contract suite's awkward documents (1e-300, an integer
// beyond 2^53, HTML characters) and on loosely formatted ones; and that
// empty and invalid payloads are still refused.
func TestEnvelopeMatchesMarshal(t *testing.T) {
	docs := []string{
		`{"name":"live","window_ms":60000}`,
		" {\n  \"a\" : [1, 2.50, -0, 1E+2],\n  \"b\": null } ",
		`"<a href='x'>&amp;</a> \u2028 \u00e9 é"`,
		`[]`,
	}
	for i := 0; i < 3; i++ {
		doc, err := json.Marshal(map[string]any{
			"n":      i,
			"values": []float64{0.1 * float64(i), 1.0 / 3.0, 1e-300, 9007199254740993},
			"text":   fmt.Sprintf("<widget & %d>", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(doc))
	}
	for _, doc := range docs {
		for _, id := range []string{"w00", "mon-000001", "a.b_c-9"} {
			got, err := encodeEnvelope(store.KindMonitor, id, []byte(doc))
			if err != nil {
				t.Fatalf("encodeEnvelope(%q): %v", doc, err)
			}
			canon, err := store.CanonicalJSON([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(canon)
			want, err := json.Marshal(envelope{Kind: string(store.KindMonitor), ID: id, SHA256: hex.EncodeToString(sum[:]), Payload: canon})
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("envelope of %q:\n got %s\nwant %s", doc, got, want)
			}
		}
	}
	for _, bad := range []string{"", " ", "{", `{"a":1}{`, "nul"} {
		if _, err := encodeEnvelope(store.KindMonitor, "w00", []byte(bad)); err == nil {
			t.Errorf("encodeEnvelope accepted payload %q", bad)
		}
	}
	if _, err := encodeEnvelope(store.KindMonitor, "w00", nil); err == nil {
		t.Error("encodeEnvelope accepted a nil payload")
	}
}

// BenchmarkEncodeEnvelope times the envelope of the record a dataset
// upload persists for the 20k-row credit baseline (~0.9 MB of JSON).
func BenchmarkEncodeEnvelope(b *testing.B) {
	data, err := synth.Credit(synth.CreditConfig{N: 20000, Bias: 1.0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := data.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"name": "credit", "frame": json.RawMessage(buf.Bytes())})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeEnvelope(store.KindDataset, "credit", payload); err != nil {
			b.Fatal(err)
		}
	}
}
