package codecs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/synth"
)

// TestMethodBytes: every wire method byte 0–5 resolves to its own row,
// in table order, and every other byte is rejected.
func TestMethodBytes(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("table has %d codecs (%v), want the paper's 6", len(all), Names())
	}
	for m := 0; m < 256; m++ {
		c, err := ByMethod(codec.Method(m))
		if m >= len(all) {
			if err == nil {
				t.Errorf("method byte %d resolved to %q", m, c.Name)
			}
			continue
		}
		if err != nil || c.Method != codec.Method(m) || all[m].Method != codec.Method(m) {
			t.Errorf("method byte %d: got %+v, %v (table row %d is method %d)", m, c.Method, err, m, all[m].Method)
			continue
		}
		back, err := ByName(c.Name)
		if err != nil || back.Method != c.Method {
			t.Errorf("method %d: ByName(%q) = %d, %v", m, c.Name, back.Method, err)
		}
	}
}

// TestCodecNamesRoundTrip: names and aliases are unique lower-case keys
// that resolve case-insensitively to their own row, and every dictionary
// scheme's String() is its table name.
func TestCodecNamesRoundTrip(t *testing.T) {
	seen := map[string]string{}
	for _, c := range All() {
		for _, n := range append([]string{c.Name}, c.Aliases...) {
			if n != strings.ToLower(n) || n == "" {
				t.Errorf("%s: name %q is not a non-empty lower-case key", c.Name, n)
			}
			if prev, ok := seen[n]; ok {
				t.Errorf("name %q used by %s and %s", n, prev, c.Name)
			}
			seen[n] = c.Name
			for _, in := range []string{n, strings.ToUpper(n), strings.ToUpper(n[:1]) + n[1:]} {
				got, err := ByName(in)
				if err != nil || got.Method != c.Method {
					t.Errorf("ByName(%q) = %d, %v; want method %d", in, got.Method, err, c.Method)
				}
			}
		}
		if s, ok := c.Scheme(); ok && s.String() != c.Name {
			t.Errorf("scheme %d String() = %q, table name %q", s, s.String(), c.Name)
		}
	}
	if _, err := ByName("huffman"); err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("ByName(unknown) error %v does not list the names", err)
	}
}

func TestSchemeByName(t *testing.T) {
	cases := []struct {
		in   string
		want codeword.Scheme
		ok   bool
	}{
		{"baseline", codeword.Baseline, true},
		{"BASELINE", codeword.Baseline, true},
		{"2byte", codeword.Baseline, true},
		{"onebyte", codeword.OneByte, true},
		{"1byte", codeword.OneByte, true},
		{"nibble", codeword.Nibble, true},
		{"Nibble", codeword.Nibble, true},
		{"liao", codeword.Liao, true},
		{"huffman", 0, false},
		{"ccrp", 0, false}, // a codec, but not a dictionary scheme
		{"lzw", 0, false},
		{"compress", 0, false},
		{"", 0, false},
	}
	valid := "baseline, onebyte, nibble, liao"
	for _, c := range cases {
		got, err := SchemeByName(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("SchemeByName(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), valid)) {
			t.Errorf("SchemeByName(%q) = %v, %v; want an error listing %s", c.in, got, err, valid)
		}
	}
	// Every advertised name must parse.
	for _, n := range SchemeNames() {
		if _, err := SchemeByName(n); err != nil {
			t.Errorf("advertised name %q does not parse", n)
		}
	}
}

// TestResetReplaysRun: natively and under every executable codec, a
// machine Reset after a run replays the run exactly — same output, exit
// status and counters — so a warm machine can serve repeated runs.
func TestResetReplaysRun(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		cpu  *machine.CPU
	}
	native, err := machine.NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	runs := []run{{"native", native}}
	for _, cd := range All() {
		img, err := cd.Compress(p, codec.Options{})
		if err != nil {
			t.Fatalf("%s: compress: %v", cd.Name, err)
		}
		ex, ok := img.(codec.Executable)
		if !ok {
			continue
		}
		cpu, err := ex.NewMachine()
		if err != nil {
			t.Fatalf("%s: new machine: %v", cd.Name, err)
		}
		runs = append(runs, run{cd.Name, cpu})
	}
	const maxSteps = 50_000_000
	for _, r := range runs {
		status, err := r.cpu.Run(maxSteps)
		if err != nil {
			t.Fatalf("%s: first run: %v", r.name, err)
		}
		out, st := append([]byte(nil), r.cpu.Output()...), r.cpu.Stats
		if err := r.cpu.Reset(); err != nil {
			t.Fatalf("%s: reset: %v", r.name, err)
		}
		status2, err := r.cpu.Run(maxSteps)
		if err != nil {
			t.Fatalf("%s: second run: %v", r.name, err)
		}
		if status2 != status || !bytes.Equal(r.cpu.Output(), out) || r.cpu.Stats != st {
			t.Errorf("%s: replay differs: status %d→%d, %d→%d output bytes, stats %+v→%+v",
				r.name, status, status2, len(out), len(r.cpu.Output()), st, r.cpu.Stats)
		}
	}
}
