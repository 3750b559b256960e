package objfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/program"
	"repro/internal/synth"
)

func TestProgramRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Entry != p.Entry || q.TextBase != p.TextBase || q.DataBase != p.DataBase {
		t.Fatal("header fields differ")
	}
	if len(q.Text) != len(p.Text) {
		t.Fatalf("text %d vs %d", len(q.Text), len(p.Text))
	}
	for i := range q.Text {
		if q.Text[i] != p.Text[i] {
			t.Fatalf("text differs at %d", i)
		}
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Fatal("data differs")
	}
	if len(q.Symbols) != len(p.Symbols) || len(q.JumpTableSlots) != len(p.JumpTableSlots) {
		t.Fatal("tables differ")
	}
	if len(q.Prologue) != len(p.Prologue) || len(q.Epilogue) != len(p.Epilogue) {
		t.Fatal("ranges differ")
	}
}

func TestImageRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != img.Name || q.Scheme != img.Scheme || q.Units != img.Units ||
		q.Base != img.Base || q.EntryUnit != img.EntryUnit {
		t.Fatal("header fields differ")
	}
	if !bytes.Equal(q.Stream, img.Stream) || !bytes.Equal(q.Data, img.Data) {
		t.Fatal("payload differs")
	}
	if len(q.Entries) != len(img.Entries) || len(q.Marks) != len(img.Marks) {
		t.Fatal("tables differ")
	}
	if q.Stats != img.Stats {
		t.Fatalf("stats differ: %+v vs %+v", q.Stats, img.Stats)
	}
	if q.TextBase != img.TextBase || !reflect.DeepEqual(q.OrigSymbols, img.OrigSymbols) {
		t.Fatal("symbolization sideband differs")
	}
	// The round-tripped image must remain symbolizable: the guest profiler
	// depends on marks, text base and original symbols all surviving disk.
	if _, err := q.GuestSymTab(); err != nil {
		t.Fatalf("GuestSymTab after round trip: %v", err)
	}
	// The deserialized image must still verify against the original and
	// still execute equivalently.
	if err := core.Verify(p, q); err != nil {
		t.Fatalf("verify after round trip: %v", err)
	}
	if _, _, err := core.RunBoth(p, q, 100_000_000); err != nil {
		t.Fatalf("execution after round trip: %v", err)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	q, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.BuildSharedDictionary(
		[]*program.Program{p, q}, core.Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDictionary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].Uses != entries[i].Uses || len(got[i].Words) != len(entries[i].Words) {
			t.Fatalf("entry %d differs", i)
		}
		for j := range got[i].Words {
			if got[i].Words[j] != entries[i].Words[j] {
				t.Fatalf("entry %d word %d differs", i, j)
			}
		}
	}
	// The reloaded dictionary still compresses and verifies.
	img, err := core.CompressFixed(p.Clone(), got, core.Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(p, img); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDictionary(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Fatal("bad dictionary magic accepted")
	}
}

// TestImageV1Rejected: a headerless version-1 file (the dictionary
// payload directly after the magic) fails with the typed frame error
// through both readers instead of being parsed.
func TestImageV1Rejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.NewBufferString("PPCZ")
	if err := core.WriteImagePayload(v1, img); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenImage(bytes.NewReader(v1.Bytes())); !errors.Is(err, ErrUnsupportedFrame) {
		t.Errorf("OpenImage(v1) = %v, want ErrUnsupportedFrame", err)
	}
	if _, err := ReadImage(bytes.NewReader(v1.Bytes())); !errors.Is(err, ErrUnsupportedFrame) {
		t.Errorf("ReadImage(v1) = %v, want ErrUnsupportedFrame", err)
	}
}

// TestImageUnitsBombRejected: a dictionary image whose Units field claims
// far more units than its stream holds would size a ~2^31-slot predecode
// table; OpenImage must refuse it.
func TestImageUnitsBombRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	// Frame header 7 bytes, then name (uint16 length + bytes), scheme byte,
	// and the uint32 Units field.
	raw := buf.Bytes()
	off := 7 + 2 + len(img.Name) + 1
	if got := binary.BigEndian.Uint32(raw[off:]); got != uint32(img.Units) {
		t.Fatalf("test setup: Units at offset %d is %d, want %d", off, got, img.Units)
	}
	binary.BigEndian.PutUint32(raw[off:], 1<<31-1)
	if _, err := OpenImage(bytes.NewReader(raw)); err == nil {
		t.Fatal("image with Units = 2^31-1 accepted")
	}
}

// TestImageEmptyEntryRejected: a dictionary image whose entries hold no
// instructions must fail to open; accepted, its codewords would expand to
// nothing and the compressed fetch frontend would index past the entry.
func TestImageEmptyEntryRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Entries {
		img.Entries[i].Words = nil
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenImage(bytes.NewReader(buf.Bytes()))
	if err == nil {
		if cpu, err := opened.(codec.Executable).NewMachine(); err == nil {
			cpu.Run(1_000_000)
		}
		t.Fatal("image with empty dictionary entries accepted")
	}
}

// TestCCRPShortLineRejected: a CCRP image whose first line is stored raw
// but truncated to one byte must fail with an error, at open or at run,
// never panic in the line decoder.
func TestCCRPShortLineRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	cd, err := codec.ByName("ccrp")
	if err != nil {
		t.Fatal(err)
	}
	img, err := cd.Compress(p, codec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := img.(*huffman.CCRPImage)
	ci.Raw[0] = true
	ci.Lines[0] = ci.Lines[0][:1]
	var buf bytes.Buffer
	if err := WriteImage(&buf, ci); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return
	}
	cpu, err := opened.(codec.Executable).NewMachine()
	if err != nil {
		return
	}
	if _, err := cpu.Run(1_000_000); err == nil {
		t.Fatal("CCRP image with a truncated raw line ran without error")
	}
}

// TestNonDictionaryImageRoundTrip: codecs without a codeword scheme
// (CCRP, LZW) round-trip through the versioned frame, reopening to an
// image of the same method with an identical re-serialization.
func TestNonDictionaryImageRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ccrp", "lzw"} {
		cd, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := cd.Compress(p, codec.Options{})
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		var frame bytes.Buffer
		if err := WriteImage(&frame, img); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := OpenImage(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if got.Method() != cd.Method() {
			t.Fatalf("%s: reopened method %#x, want %#x", name, got.Method(), cd.Method())
		}
		var before, after bytes.Buffer
		if err := cd.WriteImage(&before, img); err != nil {
			t.Fatal(err)
		}
		if err := cd.WriteImage(&after, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: payload changed across a round trip", name)
		}
		// The typed dictionary reader must refuse them with a clear error.
		if _, err := ReadImage(bytes.NewReader(frame.Bytes())); err == nil {
			t.Fatalf("%s: ReadImage accepted a non-dictionary image", name)
		}
	}
}

// TestImageFrameValidation: corrupt or unsupported frame headers are
// rejected rather than misparsed as payload.
func TestImageFrameValidation(t *testing.T) {
	frame := func(b ...byte) []byte { return append([]byte("PPCZ"), b...) }
	cases := []struct {
		name string
		data []byte
	}{
		{"unsupported version", frame(0xFF, ImageVersion+1, 0x00)},
		{"version zero", frame(0xFF, 0x00, 0x00)},
		{"unknown method", frame(0xFF, ImageVersion, 0xEE)},
		{"truncated after sentinel", frame(0xFF)},
		{"truncated after version", frame(0xFF, ImageVersion)},
	}
	for _, tc := range cases {
		if _, err := OpenImage(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := ReadProgram(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Fatal("bad program magic accepted")
	}
	if _, err := ReadImage(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Fatal("bad image magic accepted")
	}
}

func TestTruncationRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{3, 10, 100, len(full) / 2, len(full) - 1} {
		if _, err := ReadProgram(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestCorruptedProgramFailsValidation(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry point field (offset: magic 4 + str hdr 2 + name +
	// textBase 4 + dataBase 4).
	raw := buf.Bytes()
	off := 4 + 2 + len(p.Name) + 4 + 4
	raw[off] = 0xFF // entry far outside text
	if _, err := ReadProgram(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted entry accepted")
	}
}
