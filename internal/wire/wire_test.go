package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// record is one value of every field kind Writer and Reader share.
type record struct {
	U8    uint8
	U16   uint16
	U32   uint32
	U64   uint64
	Str   string
	Blob  []byte
	Words []uint32
	Raw   []byte
}

func (rec *record) write(w *Writer) {
	w.U8(rec.U8)
	w.U16(rec.U16)
	w.U32(rec.U32)
	w.U64(rec.U64)
	w.Str(rec.Str)
	w.Blob(rec.Blob)
	w.Words(rec.Words)
	w.Bytes(rec.Raw)
}

func readRecord(r *Reader, rawLen int) record {
	return record{
		U8:    r.U8(),
		U16:   r.U16(),
		U32:   r.U32(),
		U64:   r.U64(),
		Str:   r.Str(),
		Blob:  r.Blob(),
		Words: r.Words(),
		Raw:   r.Bytes(rawLen),
	}
}

// referenceRead reads the record's layout the way a reflective decoder
// does, one encoding/binary.Read per scalar and per word and one
// io.ReadFull per byte field, and returns the first error: the behaviour
// Reader must keep.
func referenceRead(src io.Reader, rawLen int) error {
	var (
		u8  uint8
		u16 uint16
		u32 uint32
		u64 uint64
	)
	scalars := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Read(src, binary.BigEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	raw := func(n int) error {
		_, err := io.ReadFull(src, make([]byte, n))
		return err
	}
	if err := scalars(&u8, &u16, &u32, &u64, &u16); err != nil {
		return err
	}
	if err := raw(int(u16)); err != nil {
		return err
	}
	if err := scalars(&u32); err != nil {
		return err
	}
	if err := raw(int(u32)); err != nil {
		return err
	}
	if err := scalars(&u32); err != nil {
		return err
	}
	for i := uint32(0); i < u32; i++ {
		if err := scalars(new(uint32)); err != nil {
			return err
		}
	}
	return raw(rawLen)
}

func encode(t *testing.T, rec *record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec.write(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	big := make([]uint32, 3*chunk/4+5) // spans several read chunks
	for i := range big {
		big[i] = uint32(i)*2654435761 ^ 0xdeadbeef
	}
	for _, rec := range []record{
		{Blob: []byte{}, Words: []uint32{}, Raw: []byte{}},
		{
			U8: 0xab, U16: 0xbeef, U32: 0xfeedface, U64: 0x0123456789abcdef,
			Str: "main", Blob: []byte{1, 2, 3}, Words: []uint32{0, 1, 0xffffffff}, Raw: []byte("tail"),
		},
		{
			U8: 0xff, U16: 0xffff, U32: 0xffffffff, U64: ^uint64(0),
			Str: strings.Repeat("s", MaxStr), Blob: bytes.Repeat([]byte{7}, 2*chunk+3), Words: big, Raw: []byte{0},
		},
	} {
		data := encode(t, &rec)
		wantLen := 1 + 2 + 4 + 8 + 2 + len(rec.Str) + 4 + len(rec.Blob) + 4 + 4*len(rec.Words) + len(rec.Raw)
		if len(data) != wantLen {
			t.Fatalf("encoded %d bytes, want %d", len(data), wantLen)
		}
		if got := binary.BigEndian.Uint64(data[7:]); got != rec.U64 {
			t.Fatalf("U64 is not big-endian: %#x", got)
		}
		r := NewReader(bytes.NewReader(data))
		got := readRecord(r, len(rec.Raw))
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip of %d-byte record differs", len(data))
		}
		if r.U8(); r.Err() != io.EOF {
			t.Fatalf("read past the end: %v, want io.EOF", r.Err())
		}
	}
}

// TestTruncation cuts a mixed record at every byte offset: the reader
// must fail with the error the reflective decoder returns, io.EOF on a
// field (or word) boundary and io.ErrUnexpectedEOF inside one.
func TestTruncation(t *testing.T) {
	rec := record{
		U8: 1, U16: 2, U32: 3, U64: 4,
		Str: "abc", Blob: []byte{5, 6}, Words: []uint32{7, 8, 9}, Raw: []byte{10, 11},
	}
	data := encode(t, &rec)
	for cut := 0; cut < len(data); cut++ {
		r := NewReader(bytes.NewReader(data[:cut]))
		readRecord(r, len(rec.Raw))
		want := referenceRead(bytes.NewReader(data[:cut]), len(rec.Raw))
		if want == nil {
			t.Fatalf("cut %d: reference read succeeded", cut)
		}
		if r.Err() != want {
			t.Errorf("cut %d of %d: %v, want %v", cut, len(data), r.Err(), want)
		}
	}

	// Cuts around the chunk boundaries of multi-chunk fields.
	long := record{Blob: make([]byte, chunk+9), Words: make([]uint32, chunk/4+3)}
	data = encode(t, &long)
	blobStart := 1 + 2 + 4 + 8 + 2 + 4
	wordsStart := blobStart + len(long.Blob) + 4
	for _, cut := range []int{
		blobStart, blobStart + 1, blobStart + chunk - 1, blobStart + chunk, blobStart + chunk + 1,
		wordsStart, wordsStart + 2, wordsStart + chunk - 4, wordsStart + chunk - 1, wordsStart + chunk,
		wordsStart + chunk + 3, wordsStart + chunk + 4, len(data) - 1,
	} {
		r := NewReader(bytes.NewReader(data[:cut]))
		readRecord(r, 0)
		if want := referenceRead(bytes.NewReader(data[:cut]), 0); r.Err() != want {
			t.Errorf("long record cut %d: %v, want %v", cut, r.Err(), want)
		}
	}
}

// TestForgedCountAllocation feeds a length prefix claiming MaxCount
// elements with no data behind it: the read must fail having allocated
// a bounded buffer, not the claimed size.
func TestForgedCountAllocation(t *testing.T) {
	for _, field := range []struct {
		name string
		read func(*Reader)
	}{
		{"Words", func(r *Reader) { r.Words() }},
		{"Blob", func(r *Reader) { r.Blob() }},
	} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxCount)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(hdr[:]))
		field.read(r)
		runtime.ReadMemStats(&after)
		if r.Err() != io.EOF {
			t.Errorf("%s: %v, want io.EOF", field.name, r.Err())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: header-only input allocated %d bytes", field.name, alloc)
		}
	}
}

func TestImplausibleLengths(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxCount+1)
	r := NewReader(bytes.NewReader(hdr[:]))
	if r.Words(); r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible word count") {
		t.Errorf("Words: %v", r.Err())
	}
	r = NewReader(bytes.NewReader(hdr[:]))
	if r.Blob(); r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible length") {
		t.Errorf("Blob: %v", r.Err())
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if w.Str(strings.Repeat("x", MaxStr+1)); w.Err() == nil || buf.Len() != 0 {
		t.Errorf("overlong Str: err %v, %d bytes written", w.Err(), buf.Len())
	}
}
