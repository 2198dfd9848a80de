package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// scrambledFindings is deliberately out of presentation order: files,
// functions, codes and positions all interleaved.
func scrambledFindings() Diags {
	m := Diags{}
	m.Add("zeta.c", Diagnostics{
		{ID: "CLX116", Sev: SevWarn, Pass: "interproc", Func: "helper", Block: 2, Instr: 1, Msg: "b"},
		{ID: "CLX115", Sev: SevWarn, Pass: "interproc", Func: "helper", Block: 0, Instr: 3, Msg: "a"},
		{ID: "CLX115", Sev: SevWarn, Pass: "interproc", Func: "helper", Block: 0, Instr: 1, Msg: "c"},
	})
	m.Add("alpha.c", Diagnostics{
		{ID: "CLX118", Sev: SevWarn, Pass: "interproc", Func: "orphan", Block: -1, Instr: -1, Msg: "d"},
		{ID: "CLX101", Sev: SevError, Pass: "verifier", Func: "main", Block: 1, Instr: 0, Msg: "e"},
	})
	return m
}

func TestDiagsFlattenDeterministicOrder(t *testing.T) {
	m := scrambledFindings()
	flat := m.Flatten()
	if len(flat) != 5 {
		t.Fatalf("flattened %d findings, want 5", len(flat))
	}
	// Files ascend; within a file, (function, code, position) ascend; File
	// is stamped on every row.
	wantFiles := []string{"alpha.c", "alpha.c", "zeta.c", "zeta.c", "zeta.c"}
	for i, d := range flat {
		if d.File != wantFiles[i] {
			t.Fatalf("row %d file = %q, want %q (%v)", i, d.File, wantFiles[i], flat)
		}
	}
	if flat[2].Instr != 1 || flat[3].Instr != 3 || flat[4].ID != "CLX116" {
		t.Fatalf("within-file order wrong: %+v", flat[2:])
	}
	// Flatten must not depend on map iteration: repeated calls agree.
	for i := 0; i < 10; i++ {
		if again := scrambledFindings().Flatten(); !reflect.DeepEqual(again, flat) {
			t.Fatalf("Flatten order unstable on run %d", i)
		}
	}
}

func TestDiagnosticsJSONByteStable(t *testing.T) {
	flat := scrambledFindings().Flatten()
	first, err := flat.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Byte-stability: same findings, any input order, identical bytes.
	for i := 0; i < 5; i++ {
		shuffled := append(Diagnostics(nil), flat...)
		for j := range shuffled {
			k := (j*7 + i) % len(shuffled)
			shuffled[j], shuffled[k] = shuffled[k], shuffled[j]
		}
		again, err := shuffled.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("JSON not byte-stable under input reordering:\n%s\nvs\n%s", first, again)
		}
	}
	if first[len(first)-1] != '\n' {
		t.Fatal("JSON output lacks trailing newline")
	}
	// The schema is a compatibility contract: decode and pin field names.
	var rows []map[string]any
	if err := json.Unmarshal(first, &rows); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("decoded %d rows, want 5", len(rows))
	}
	for _, key := range []string{"file", "function", "code", "severity", "block", "instr", "message"} {
		if _, ok := rows[0][key]; !ok {
			t.Errorf("schema missing field %q: %v", key, rows[0])
		}
	}
	if rows[0]["code"] != "CLX101" || rows[0]["severity"] != "error" {
		t.Fatalf("first row = %v", rows[0])
	}
}

func TestJSONEmptyFindings(t *testing.T) {
	out, err := Diagnostics(nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]\n" {
		t.Fatalf("empty findings render %q, want \"[]\\n\"", out)
	}
}
