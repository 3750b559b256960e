package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestBundleRoundTrip is the flight-recorder contract over the full
// matrix: for every benchmark under every codec, the collected
// bundle survives Write → Open with every section reflect.DeepEqual, and
// rewriting the reopened bundle reproduces every file byte for byte
// (canonical encoding: checksums are stable across round trips).
func TestBundleRoundTrip(t *testing.T) {
	c := NewCorpus()
	for _, name := range c.Names() {
		for _, enc := range AuditEncodings {
			t.Run(name+"/"+enc, func(t *testing.T) {
				t.Parallel()
				b, err := CollectBundle(c, name, enc, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				base := t.TempDir()
				dir := filepath.Join(base, "bundle")
				if err := obs.Write(dir, b); err != nil {
					t.Fatal(err)
				}
				got, err := obs.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Identity, b.Identity) {
					t.Errorf("identity changed across round trip:\n got %+v\nwant %+v", got.Identity, b.Identity)
				}
				if !reflect.DeepEqual(got.Stats, b.Stats) {
					t.Errorf("stats section changed across round trip")
				}
				if !reflect.DeepEqual(got.Profile, b.Profile) {
					t.Errorf("profile section changed across round trip:\n got %+v\nwant %+v", got.Profile, b.Profile)
				}
				if !reflect.DeepEqual(got.Guest, b.Guest) {
					t.Errorf("guest section changed across round trip")
				}
				if got.GuestFolded != b.GuestFolded {
					t.Errorf("folded stacks changed across round trip")
				}
				if !reflect.DeepEqual(got.Audit, b.Audit) {
					t.Errorf("audit section changed across round trip")
				}
				if got.AuditCSV != b.AuditCSV {
					t.Errorf("audit CSV changed across round trip")
				}
				if !reflect.DeepEqual(got.Trace, b.Trace) {
					t.Errorf("trace section changed across round trip")
				}

				// Rewriting the reopened bundle must reproduce every file
				// byte-identically — the property bundle checksums and diffs
				// rest on.
				dir2 := filepath.Join(base, "rewrite")
				if err := obs.Write(dir2, got); err != nil {
					t.Fatal(err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					want, err := os.ReadFile(filepath.Join(dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					gotData, err := os.ReadFile(filepath.Join(dir2, e.Name()))
					if err != nil {
						t.Fatalf("rewrite lost %s: %v", e.Name(), err)
					}
					if string(gotData) != string(want) {
						t.Errorf("%s: rewrite is not byte-identical", e.Name())
					}
				}
			})
		}
	}
}

// TestBundleSectionsByCodec pins which sections each encoding contributes:
// executable codecs produce the full flight-record, the size-only
// comparator stays stats+audit, and the native run has every execution
// section but no audit (nothing was compressed).
func TestBundleSectionsByCodec(t *testing.T) {
	c := NewCorpus()
	for _, enc := range append([]string{"native"}, AuditEncodings...) {
		b, err := CollectBundle(c, "compress", enc, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		compressed := enc != "native"
		if (b.Audit != nil) != compressed || (b.AuditCSV != "") != compressed {
			t.Errorf("%s: size audit present=%v, want %v", enc, b.Audit != nil, compressed)
		}
		if b.Stats == nil {
			t.Errorf("%s: bundle carries no stats snapshot", enc)
		}
		executable := enc != "lzw"
		if (b.Profile != nil) != executable {
			t.Errorf("%s: profile section present=%v, want %v", enc, b.Profile != nil, executable)
		}
		if (b.Guest != nil) != executable {
			t.Errorf("%s: guest section present=%v, want %v", enc, b.Guest != nil, executable)
		}
		if executable && b.GuestFolded == "" {
			t.Errorf("%s: executable bundle has no folded stacks", enc)
		}
		if b.Identity.Codec != enc {
			t.Errorf("%s: identity codec = %q", enc, b.Identity.Codec)
		}
	}
}
