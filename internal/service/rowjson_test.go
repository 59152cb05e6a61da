package service

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSweepRowAppendJSONMatchesEncoder: the row appender that replaced
// json.Encoder in the sweep stream must write the same bytes, for every
// row shape and every parameter type a wire grid can carry (numbers
// arrive as float64, including ones %v prints as 5.293822e+06), and for
// names and errors that encoding/json escapes.
func TestSweepRowAppendJSONMatchesEncoder(t *testing.T) {
	params := map[string]any{
		"write_buffer_depth": float64(8), "urgency_threshold": 5.293822e+06, "max_cycles": float64(1 << 40),
		"tiny": 1e-7, "huge": 1e21, "neg": -0.5, "zero": float64(0), "int": 42,
		"negzero": math.Copysign(0, -1), "edge": 1e-6, "below": 9.999999e-7, "big": 1.2345678901234567e20,
		"third": 1.0 / 3, "exp": -2.5e-300, "max": math.MaxFloat64, "frac": 0.1,
		"bi_enabled": true, "pipelining": false, "mix": "seq/read-dominant", "null": nil,
		"list": []any{float64(1), "a<b"}, "obj": map[string]any{"k": "v&w"},
		"html <&>": "é\u2028\x01\"\\",
	}
	result := json.RawMessage(`{"hash":"ab","cycles":5293822,"name":"x\u003cy","util":0.25}`)
	names := []string{"plain/name", "grid/<a&b>", "grid/é/日本", "bad\xffutf8", "line\u2028sep", "tab\tnl\nq\"bs\\", "del\x7f"}
	var rows []SweepRow
	for i, name := range names {
		rows = append(rows,
			SweepRow{Index: i, Name: name, Hash: strings.Repeat("cd", 32), Params: params, Cache: "hit", Result: result},
			SweepRow{Index: i, Name: name, Hash: strings.Repeat("cd", 32), Params: params, Error: "simulation failed: " + name},
			SweepRow{Index: i, Name: name, Params: map[string]any{"count": float64(20000)}, Error: "sweep: overlapping <ranges>"},
		)
	}
	rows = append(rows, SweepRow{}, SweepRow{Params: map[string]any{}})
	for i, row := range rows {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(row); err != nil {
			t.Fatal(err)
		}
		got, err := row.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got[len("prefix"):], '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("row %d:\n got  %s\n want %s", i, got, want.Bytes())
		}
	}
	for _, bad := range []any{math.NaN(), math.Inf(1), make(chan int)} {
		if _, err := (SweepRow{Params: map[string]any{"count": bad}}).AppendJSON(nil); err == nil {
			t.Fatalf("parameter %v encoded without error", bad)
		}
	}
}

func TestValidResultBody(t *testing.T) {
	for body, want := range map[string]bool{
		`{"cycles":1}`: true, `[1,2]`: true, `{"a": 1}`: true,
		"": false, "<html>": false, `{"cycles":1}` + "\n": false, "{\n\"a\":1}": false, `{"a":`: false,
	} {
		if got := ValidResultBody([]byte(body)); got != want {
			t.Errorf("ValidResultBody(%q) = %v, want %v", body, got, want)
		}
	}
}
