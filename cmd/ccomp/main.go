// Command ccomp compresses a .ppx object file into a .ppz image with any
// registered codec, verifies it against the original, and prints the size
// breakdown. The output image is self-describing: its frame records the
// codec, so ccrun/ccdis need no scheme flag to open it.
//
// Usage:
//
//	ccomp -list-codecs                         # registered codecs
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

	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/sizeaudit"
)

func main() {
	schemeName := flag.String("scheme", "baseline", "codec name (see -list-codecs)")
	entries := flag.Int("entries", 0, "dictionary entry budget (0 or negative = scheme maximum; dictionary codecs only)")
	entryLen := flag.Int("entrylen", 4, "maximum instructions per dictionary entry (dictionary codecs only)")
	out := flag.String("o", "", "output .ppz path (default: input with .ppz suffix)")
	audit := flag.Bool("audit", false, "print the byte-provenance audit: every compressed byte attributed to its source function and overhead class")
	auditDiff := flag.Bool("auditdiff", false, "print per-function size deltas, native vs compressed")
	listCodecs := flag.Bool("list-codecs", false, "list the registered codecs (method byte, name, aliases) and exit")
	flag.Parse()

	if *listCodecs {
		fmt.Println("method  name      aliases")
		for _, c := range codec.Codecs() {
			fmt.Printf("  0x%02x  %-8s  %s\n", uint8(c.Method()), c.Name(),
				strings.Join(codec.Aliases(c.Name()), ", "))
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccomp [flags] prog.ppx")
		os.Exit(2)
	}
	in := flag.Arg(0)
	cd, err := cli.ParseCodec(*schemeName)
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

	var em *sizeaudit.Emitter
	if *audit || *auditDiff {
		em = sizeaudit.NewProgramEmitter(p)
	}
	img, err := cd.Compress(p, codec.Options{
		MaxEntries: *entries, MaxEntryLen: *entryLen, Audit: em,
	})
	if err != nil {
		fatal(err)
	}
	if err := cd.Verify(p, img); err != nil {
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

	fmt.Printf("%s: %s codec (method 0x%02x)\n", p.Name, cd.Name(), uint8(cd.Method()))
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

	if em != nil {
		a := em.Finish(p.Name, cd.Name(), img.CompressedBytes(), p.SizeBytes())
		if err := a.Check(); err != nil {
			fatal(err)
		}
		fmt.Println()
		if *audit {
			if err := a.WriteTable(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *auditDiff {
			if err := sizeaudit.Diff(sizeaudit.AuditProgram(p), a).WriteTable(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccomp:", err)
	os.Exit(1)
}
