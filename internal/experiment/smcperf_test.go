package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSMCPerfReportGoldenSchema pins the exact serialized form of
// BENCH_smc.json. External tooling (plot scripts, CI trend tracking)
// keys on these field names; renaming or retyping one is a breaking
// change this test makes visible instead of silent.
func TestSMCPerfReportGoldenSchema(t *testing.T) {
	rep := &SMCPerfReport{
		GOMAXPROCS:    8,
		CPUModel:      "Example CPU",
		GoVersion:     "go1.24.0",
		Commit:        "0123abcd",
		Workers:       4,
		KeyBits:       1024,
		Attributes:    4,
		Pairs:         64,
		KeygenSeconds: 0.5,
		Engines: []SMCPerfEngine{
			{
				Engine: "serial", Packing: "off", Workers: 1,
				Seconds: 10.25, Rate: 6.2439,
				BytesPerComparison: 2048, ResultBytesPerComparison: 1040,
				DecryptionsPerComparison: 4,
			},
			{
				Engine: "serial", Packing: "packed", Workers: 1,
				Seconds: 8.5, Rate: 7.5294,
				BytesPerComparison: 1560, ResultBytesPerComparison: 272,
				DecryptionsPerComparison: 1,
			},
		},
		Speedup:             2.9285,
		PackedSpeedup:       1.2058,
		DecryptionReduction: 4,
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{
  "gomaxprocs": 8,
  "cpu_model": "Example CPU",
  "go_version": "go1.24.0",
  "commit": "0123abcd",
  "workers": 4,
  "key_bits": 1024,
  "attributes": 4,
  "pairs": 64,
  "keygen_seconds": 0.5,
  "engines": [
    {
      "engine": "serial",
      "packing": "off",
      "workers": 1,
      "seconds": 10.25,
      "comparisons_per_sec": 6.2439,
      "bytes_per_comparison": 2048,
      "result_bytes_per_comparison": 1040,
      "decryptions_per_comparison": 4
    },
    {
      "engine": "serial",
      "packing": "packed",
      "workers": 1,
      "seconds": 8.5,
      "comparisons_per_sec": 7.5294,
      "bytes_per_comparison": 1560,
      "result_bytes_per_comparison": 272,
      "decryptions_per_comparison": 1
    }
  ],
  "speedup": 2.9285,
  "packed_speedup": 1.2058,
  "decryption_reduction": 4
}
`
	if got := buf.String(); got != golden {
		t.Errorf("BENCH_smc.json schema drifted:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// Independent of formatting: exactly these key sets, every scalar a
	// JSON number except the host strings and the engine/packing labels.
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	wantTop := []string{
		"gomaxprocs", "cpu_model", "go_version", "commit",
		"workers", "key_bits", "attributes", "pairs",
		"keygen_seconds", "engines",
		"speedup", "packed_speedup", "decryption_reduction",
	}
	if len(m) != len(wantTop) {
		t.Errorf("report has %d fields, want %d: %v", len(m), len(wantTop), keysOf(m))
	}
	for _, k := range wantTop {
		v, ok := m[k]
		if !ok {
			t.Errorf("missing field %q", k)
			continue
		}
		switch k {
		case "engines":
			continue
		case "cpu_model", "go_version", "commit":
			if s, isStr := v.(string); !isStr || s == "" {
				t.Errorf("field %q is %v, want a non-empty JSON string", k, v)
			}
			continue
		}
		if _, isNum := v.(float64); !isNum {
			t.Errorf("field %q is %T, want a JSON number", k, v)
		}
	}
	engines, _ := m["engines"].([]any)
	if len(engines) != 2 {
		t.Fatalf("engines has %d entries, want 2", len(engines))
	}
	wantEngine := []string{
		"engine", "packing", "workers", "seconds", "comparisons_per_sec",
		"bytes_per_comparison", "result_bytes_per_comparison",
		"decryptions_per_comparison",
	}
	for i, e := range engines {
		em, _ := e.(map[string]any)
		if len(em) != len(wantEngine) {
			t.Errorf("engines[%d] has %d fields, want %d: %v", i, len(em), len(wantEngine), keysOf(em))
		}
		for _, k := range wantEngine {
			v, ok := em[k]
			if !ok {
				t.Errorf("engines[%d] missing field %q", i, k)
				continue
			}
			switch k {
			case "engine", "packing":
				if _, isStr := v.(string); !isStr {
					t.Errorf("engines[%d].%s is %T, want a JSON string", i, k, v)
				}
			default:
				if _, isNum := v.(float64); !isNum {
					t.Errorf("engines[%d].%s is %T, want a JSON number", i, k, v)
				}
			}
		}
	}
	if t.Failed() {
		t.Log("fields present: " + strings.Join(keysOf(m), ", "))
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
