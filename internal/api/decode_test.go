package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/progen"
)

// hotBody is a json.Marshal'd request shaped like the benchmark's short-hot
// traffic: a generated MiniJava source of 7–9.5 KB plus a mode. Its '<'
// and '&' arrive as \u003c and \u0026 and every line break as \n.
func hotBody(tb testing.TB) []byte {
	tb.Helper()
	for seed := int64(1); ; seed++ {
		src := progen.Generate(seed, progen.Config{})
		if len(src) < 7000 || len(src) > 9500 {
			continue
		}
		body, err := json.Marshal(RunRequest{Source: src, Mode: "trace"})
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
}

// trickySources are string values whose JSON form carries every kind of
// escape json.Marshal writes, plus raw multi-byte UTF-8.
var trickySources = []string{
	"class Main { static void main() { int i = 0; while (i < 3 && 0 < 1) { i = i + 1; } } }",
	"say \"hi\"\n\ttab\\slash / <a> & b\r\b\f\x00\x1f",
	"naïve café ü — 日本語",
	"line\u2028sep\u2029para",
	"emoji 😀 🎉 end",
	"",
}

func FuzzDecodeRunRequest(f *testing.F) {
	for _, src := range trickySources {
		for _, r := range []RunRequest{
			{Source: src, Mode: "trace"},
			{Source: src, Kind: "jasm", Threshold: 0.9, Delay: -3, Decay: 7, MaxSteps: 1 << 40, TimeoutMs: 250},
		} {
			b, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, s := range []string{
		`{"workload":"soot","mode":"plain"}`,
		"{\"source\":\"\xff\xfe\"}",
		"{\"source\":\"ok\xc3\"}",
		`{"source":"\ud800"}`,
		`{"source":"\udc00\ud800"}`,
		`{"source":"\ud800\u0041"}`,
		`{"source":"a\ud83d\ude00b"}`,
		`{"source":"\u00e9\u00E9\/"}`,
		`{"source":"\x"}`,
		`{"Mode":"plain"}`,
		`{"MODE":"plain","extra":1}`,
		`{"unknown":[1,{"a":null}],"mode":"trace"}`,
		`{"mode":"plain","mode":"trace"}`,
		`{"mod\u0065":"plain"}`,
		`{"source":null}`,
		`null`,
		`{"delay":1e2}`,
		`{"delay":01}`,
		`{"delay":-2147483648}`,
		`{"delay":2147483648}`,
		`{"decay":-0}`,
		`{"decay":4294967295}`,
		`{"decay":4294967296}`,
		`{"maxSteps":9223372036854775807,"timeoutMs":-9223372036854775808}`,
		`{"maxSteps":9223372036854775808}`,
		`{"timeoutMs":12345678901234567890}`,
		`{"threshold":0.9}`,
		`{"threshold":-0}`,
		`{"threshold":1e400}`,
		`{"threshold":1.}`,
		`{"threshold":.5}`,
		`{"threshold":2E-3}`,
		`{"threshold":"0.5"}`,
		`{"workload":"soot"} x`,
		`{"workload":"soot"}{}`,
		" \t\r\n{ \"workload\" : \"soot\" , \"mode\":\"plain\" } \n",
		`{}`,
		`{`,
		`{"kind":"jasm",}`,
		``,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want RunRequest
		gotErr := DecodeRunRequest(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, json.Unmarshal says %v", data, gotErr, wantErr)
		}
		if got != want || math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
			t.Fatalf("%q:\n got %+v\nwant %+v", data, got, want)
		}
	})
}

// TestDecodeRunRequestOnePass pins which inputs the one-pass path decodes
// itself, so the fuzz test's agreement is not won by always falling back.
func TestDecodeRunRequestOnePass(t *testing.T) {
	var bodies []string
	for _, src := range trickySources {
		b, _ := json.Marshal(RunRequest{Source: src, Kind: "jasm", Mode: "plain", Threshold: 0.97,
			Delay: -2147483648, Decay: 4294967295, MaxSteps: math.MaxInt64, TimeoutMs: math.MinInt64})
		bodies = append(bodies, string(b))
	}
	bodies = append(bodies, string(hotBody(t)),
		`{"source":"a\ud83d\ude00b\u00e9\/"}`,
		`{"mode":"plain","mode":"trace"}`,
		`{"threshold":-0}`,
		`{"threshold":2E-3}`,
		" {\"workload\" : \"soot\" }\n",
		`{}`)
	for _, s := range bodies {
		var v, want RunRequest
		if !decodeFlat([]byte(s), &v) {
			t.Errorf("%.80q: left to json.Unmarshal", s)
			continue
		}
		if err := json.Unmarshal([]byte(s), &want); err != nil || v != want {
			t.Errorf("%.80q: one pass gave %+v, json.Unmarshal %+v (%v)", s, v, want, err)
		}
	}
	for _, s := range []string{
		`{"Mode":"plain"}`,
		`{"extra":1}`,
		`{"source":null}`,
		`{"source":"\ud800"}`,
		"{\"source\":\"\xff\"}",
		`{"delay":1e2}`,
		`{"delay":2147483648}`,
		`{"decay":-1}`,
		`{"workload":"soot"} x`,
		`{"kind":"jasm",}`,
	} {
		var v RunRequest
		if decodeFlat([]byte(s), &v) {
			t.Errorf("%q: decoded in one pass, want json.Unmarshal to judge it", s)
		}
	}
}

// TestDecodeRunRequestAllocs pins the cost of a short-hot body: one
// allocation per string field present (source and mode), nothing else.
func TestDecodeRunRequestAllocs(t *testing.T) {
	body := hotBody(t)
	var r RunRequest
	allocs := testing.AllocsPerRun(100, func() {
		r = RunRequest{}
		if err := DecodeRunRequest(body, &r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("DecodeRunRequest allocates %v times per short-hot body, want 2", allocs)
	}
}

var sinkRequest RunRequest

// BenchmarkDecodeRunRequest measures a short-hot body; the json.Decoder
// leg is how the daemon decoded it before DecodeRunRequest.
func BenchmarkDecodeRunRequest(b *testing.B) {
	body := hotBody(b)
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r RunRequest
			if err := DecodeRunRequest(body, &r); err != nil {
				b.Fatal(err)
			}
			sinkRequest = r
		}
	})
	b.Run("json.Decoder", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r RunRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
			sinkRequest = r
		}
	})
}
