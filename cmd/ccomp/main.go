// Command ccomp compresses a .ppx object file into a .ppz image with any
// codec, verifies it against the original, and prints the size
// breakdown. The output image is self-describing: its frame records the
// codec, so ccrun/ccdis need no scheme flag to open it.
//
// Usage:
//
//	ccomp -list-codecs                         # the codec table
//	ccomp -scheme nibble -o prog.ppz prog.ppx
//	ccomp -scheme ccrp prog.ppx                # non-dictionary codecs too
//	ccomp -scheme baseline -entries 1024 -entrylen 8 prog.ppx
//	ccomp -scheme nibble -audit prog.ppx       # per-function byte provenance
//	ccomp -scheme nibble -auditdiff prog.ppx   # per-function delta vs native
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/codec"
	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/sizeaudit"
)

func main() {
	schemeName := flag.String("scheme", "baseline", "codec name (see -list-codecs)")
	entries := flag.Int("entries", 0, "dictionary entry budget (0 or negative = scheme maximum; dictionary codecs only)")
	entryLen := flag.Int("entrylen", 4, "maximum instructions per dictionary entry (dictionary codecs only)")
	out := flag.String("o", "", "output .ppz path (default: input with .ppz suffix)")
	audit := flag.Bool("audit", false, "print the byte-provenance audit: every compressed byte attributed to its source function and overhead class")
	auditDiff := flag.Bool("auditdiff", false, "print per-function size deltas, native vs compressed")
	listCodecs := flag.Bool("list-codecs", false, "list the codecs (method byte, name, aliases) and exit")
	flag.Parse()

	if *listCodecs {
		fmt.Println("method  name      aliases")
		for _, c := range codecs.All() {
			fmt.Printf("  0x%02x  %-8s  %s\n", uint8(c.Method), c.Name, strings.Join(c.Aliases, ", "))
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccomp [flags] prog.ppx")
		os.Exit(2)
	}
	in := flag.Arg(0)
	cd, err := codecs.ByName(*schemeName)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	p, err := objfile.ReadProgram(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	opt := codec.Options{MaxEntries: *entries, MaxEntryLen: *entryLen}
	var img codec.Image
	var a *sizeaudit.Audit
	if *audit || *auditDiff {
		img, a, err = codecs.Audit(cd, p, opt)
	} else {
		img, err = cd.Compress(p, opt)
	}
	if err != nil {
		fatal(err)
	}
	if err := img.Verify(p); err != nil {
		fatal(fmt.Errorf("verification failed: %w", err))
	}

	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(in, ".ppx") + ".ppz"
	}
	g, err := os.Create(dst)
	if err != nil {
		fatal(err)
	}
	if err := objfile.WriteImage(g, img); err != nil {
		fatal(err)
	}
	if err := g.Close(); err != nil {
		fatal(err)
	}

	fmt.Printf("%s: %s codec (method 0x%02x)\n", p.Name, cd.Name, uint8(cd.Method))
	fmt.Printf("  original         %8d bytes (%d instructions)\n", p.SizeBytes(), p.SizeBytes()/4)
	if di, ok := img.(*core.Image); ok {
		st := di.Stats
		fmt.Printf("  stream           %8d bytes (%d units of %d bits)\n", di.StreamBytes, di.Units, di.Scheme.UnitBits())
		fmt.Printf("  dictionary       %8d bytes (%d entries)\n", di.DictionaryBytes, len(di.Entries))
		fmt.Printf("  compressed       %8d bytes\n", di.CompressedBytes())
		fmt.Printf("  compression ratio %.3f (%.1f%% reduction)\n", di.Ratio(), 100*(1-di.Ratio()))
		fmt.Printf("  codewords %d (covering %d instructions), raw %d, far-branch stubs %d\n",
			st.CodewordItems, st.CoveredInsns, st.RawItems, st.StubBranches)
	} else {
		fmt.Printf("  compressed       %8d bytes\n", img.CompressedBytes())
		fmt.Printf("  compression ratio %.3f (%.1f%% reduction)\n", img.Ratio(), 100*(1-img.Ratio()))
	}
	fmt.Printf("  verified: structural equivalence OK -> %s\n", dst)

	if *audit {
		report(obs.AuditReport(a))
	}
	if *auditDiff {
		report(obs.AuditDiffReport(sizeaudit.Diff(sizeaudit.AuditProgram(p), a)))
	}
}

// report prints a size report after a blank line.
func report(r *obs.Report) {
	fmt.Println()
	if err := r.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccomp:", err)
	os.Exit(1)
}
