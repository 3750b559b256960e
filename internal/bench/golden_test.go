package bench

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/codecs"
	"repro/internal/core"
)

// TestGoldenImagePayloads pins the serialized payload of every benchmark
// under every codec to hashes captured before the codec registry (now the
// codec table) existed. A mismatch means a refactor changed what lands on
// disk — either the encoder's output or the payload framing drifted.
//
// The hashes cover the codec payload only (what Image.WritePayload emits),
// not the outer PPCZ frame: the frame deliberately changed from v1 to the
// self-describing v2 header, but every payload byte behind it must not.
func TestGoldenImagePayloads(t *testing.T) {
	f, err := os.Open("testdata/golden_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c := NewCorpus()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			t.Fatalf("golden_hashes.txt:%d: want 3 fields, got %q", line, sc.Text())
		}
		bench, enc, want := fields[0], fields[1], fields[2]
		seen[enc] = true
		t.Run(bench+"/"+enc, func(t *testing.T) {
			t.Parallel()
			got, err := payloadHash(c, bench, enc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("payload hash %s, want %s (serialized image changed)", got, want)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The golden rows must cover the whole codec table: a codec added
	// without a golden row would silently escape the regression gate.
	for _, name := range codecs.Names() {
		if !seen[name] {
			t.Errorf("codec %q has no golden rows; regenerate testdata/golden_hashes.txt", name)
		}
	}
}

func payloadHash(c *Corpus, bench, enc string) (string, error) {
	cd, err := codecs.ByName(enc)
	if err != nil {
		return "", err
	}
	var img codec.Image
	if s, ok := cd.Scheme(); ok {
		img, err = c.Image(bench, core.Options{Scheme: s, MaxEntryLen: 4})
	} else {
		prog, perr := c.Program(bench)
		if perr != nil {
			return "", perr
		}
		img, err = cd.Compress(prog, codec.Options{})
	}
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := img.WritePayload(&buf); err != nil {
		return "", fmt.Errorf("serialize %s/%s: %w", bench, enc, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
