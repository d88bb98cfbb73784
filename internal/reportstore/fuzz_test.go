package reportstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentOpen writes arbitrary bytes as a store's segment file and opens
// it. Open must never panic; every record it recovers must survive a JSON
// round trip; a second Open must find the repaired segment unchanged; and a
// record appended after recovery must be readable after reopening.
func FuzzSegmentOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := recordsJSON(t, st)
		for i, rec := range st.recs {
			enc, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("record %d: encode: %v", i, err)
			}
			var back Record
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatalf("record %d: decode %s: %v", i, enc, err)
			}
			if again, _ := json.Marshal(&back); !bytes.Equal(enc, again) {
				t.Fatalf("record %d does not round-trip:\n%s\n%s", i, enc, again)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}

		re, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if tr := re.Stats().Truncated; tr != 0 {
			t.Fatalf("second Open truncated %d more bytes", tr)
		}
		if second := recordsJSON(t, re); !bytes.Equal(first, second) {
			t.Fatalf("second Open recovered different records:\n%s\n%s", first, second)
		}
		if after, _ := os.ReadFile(seg); !bytes.Equal(repaired, after) {
			t.Fatal("second Open changed the segment")
		}

		seq, err := re.Append(&Record{Entity: "fuzz-probe"})
		if err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		last, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after Append: %v", err)
		}
		defer last.Close()
		page, err := last.Query(Query{AfterSeq: seq - 1, Entity: "fuzz-probe"})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Records) != 1 || page.Records[0].Seq != seq {
			t.Fatalf("appended record seq %d not readable after reopen: %+v", seq, page.Records)
		}
	})
}

// recordsJSON is the canonical encoding of every record a store holds.
func recordsJSON(t *testing.T, st *Store) []byte {
	t.Helper()
	buf, err := json.Marshal(st.recs)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
