package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/synth"
)

// buildCCRun compiles the ccrun binary once per test run.
func buildCCRun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ccrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ccrun: %v\n%s", err, out)
	}
	return bin
}

// writeImage compresses a synth benchmark under the nibble scheme and
// serializes it as a .ppz fixture.
func writeImage(t *testing.T, dir, bench string) string {
	t.Helper()
	p, err := synth.Generate(bench)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bench+".ppz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteImage(f, img); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBundleMatchesCollectBundle is the acceptance check for the shared
// run collector: ccrun -bundle on a nibble .ppz and bench.CollectBundle on
// the same benchmark must write byte-identical section files, and their
// manifests may differ only in the options fingerprint, which a
// deserialized image does not carry.
func TestBundleMatchesCollectBundle(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	ppz := writeImage(t, dir, "compress")

	got := filepath.Join(dir, "ccrun")
	if out, err := exec.Command(bin, "-bundle", got, ppz).CombinedOutput(); err != nil {
		t.Fatalf("ccrun -bundle: %v\n%s", err, out)
	}
	b, err := bench.CollectBundle(bench.NewCorpus(), "compress", "nibble", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "collect")
	if err := obs.Write(want, b); err != nil {
		t.Fatal(err)
	}

	gb, err := obs.Open(got)
	if err != nil {
		t.Fatal(err)
	}
	if gb.Identity.Bench != "compress" || gb.Identity.Codec != "nibble" || gb.Identity.Method != 2 {
		t.Errorf("bundle identity = %+v", gb.Identity)
	}
	if gb.Identity.OptionsHash != "" || b.Identity.OptionsHash == "" {
		t.Errorf("options hashes: ccrun %q, CollectBundle %q", gb.Identity.OptionsHash, b.Identity.OptionsHash)
	}
	gb.Identity.OptionsHash = b.Identity.OptionsHash
	if !reflect.DeepEqual(gb.Identity, b.Identity) {
		t.Errorf("identity differs beyond options_hash:\n got %+v\nwant %+v", gb.Identity, b.Identity)
	}

	entries, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEntries, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEntries) != len(entries) {
		t.Errorf("ccrun bundle has %d files, CollectBundle %d", len(gotEntries), len(entries))
	}
	for _, e := range entries {
		if e.Name() == obs.ManifestFile {
			continue
		}
		w, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Errorf("ccrun bundle lacks %s: %v", e.Name(), err)
			continue
		}
		if string(g) != string(w) {
			t.Errorf("%s differs between ccrun -bundle and bench.CollectBundle", e.Name())
		}
	}
}

// TestBundleCacheProfile pins -cache under -bundle: the profile section
// carries the I-cache totals and a miss curve sampled over the run, and
// the guest profile charges every miss to a function. ijpeg makes enough
// line accesses for more than one curve point.
func TestBundleCacheProfile(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	ppz := writeImage(t, dir, "ijpeg")
	bundleDir := filepath.Join(dir, "bundle")
	if out, err := exec.Command(bin, "-cache", "1024", "-bundle", bundleDir, ppz).CombinedOutput(); err != nil {
		t.Fatalf("ccrun -cache 1024 -bundle: %v\n%s", err, out)
	}
	b, err := obs.Open(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Profile == nil || b.Profile.Cache == nil {
		t.Fatal("profile section has no cache section")
	}
	c := b.Profile.Cache
	if c.Accesses == 0 || c.Misses == 0 || c.Hits+c.Misses != c.Accesses {
		t.Errorf("cache totals inconsistent: %+v", *c)
	}
	if len(c.Curve) < 2 {
		t.Fatalf("miss curve has %d points over %d accesses", len(c.Curve), c.Accesses)
	}
	for i, pt := range c.Curve {
		if pt.Access > c.Accesses || pt.Hits+pt.Misses != pt.Access || (i > 0 && pt.Access <= c.Curve[i-1].Access) {
			t.Fatalf("curve point %d = %+v is inconsistent (accesses %d)", i, pt, c.Accesses)
		}
	}
	if b.Guest == nil {
		t.Fatal("bundle has no guest section")
	}
	if b.Guest.Total.CacheMisses != c.Misses {
		t.Errorf("guest profile charges %d misses, cache saw %d", b.Guest.Total.CacheMisses, c.Misses)
	}
}

// TestBundleNativeProgram pins the .ppx path: bundles work for native runs
// too, with codec "native" and no audit section.
func TestBundleNativeProgram(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	ppx := filepath.Join(dir, "compress.ppx")
	f, err := os.Create(ppx)
	if err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteProgram(f, p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	bundleDir := filepath.Join(dir, "bundle")
	cmd := exec.Command(bin, "-bundle", bundleDir, ppx)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ccrun -bundle on .ppx: %v\n%s", err, out)
	}
	b, err := obs.Open(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Identity.Codec != "native" || b.Identity.Bench != "compress" {
		t.Errorf("native bundle identity = %+v", b.Identity)
	}
	if b.Profile == nil || b.Guest == nil || b.GuestFolded == "" {
		t.Error("native bundle missing profile/guest sections")
	}
	if b.Audit != nil {
		t.Error("native bundle should carry no size audit")
	}
}
