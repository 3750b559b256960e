// Command ccdis disassembles .ppx programs and .ppz compressed images. For
// images it renders the codeword stream with dictionary expansions inline
// (the paper's Figure 2 view) and dumps the dictionary.
//
// Usage:
//
//	ccdis prog.ppx | head
//	ccdis -dict prog.ppz
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/codecs"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/objfile"
	"repro/internal/ppc"
)

func main() {
	dictOnly := flag.Bool("dict", false, "for images: print only the dictionary")
	limit := flag.Int("n", 0, "stop after this many lines (0 = all)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccdis [flags] prog.{ppx,ppz}")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	if strings.HasSuffix(path, ".ppz") {
		// The frame's method byte selects the codec; dictionary images get
		// the full Figure 2 rendering, other codecs a header summary.
		oi, err := objfile.OpenImage(f)
		if err != nil {
			fatal(err)
		}
		if img, ok := oi.(*core.Image); ok {
			disImage(img, *dictOnly, *limit)
			return
		}
		c, err := codecs.ByMethod(oi.Method())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s codec (method 0x%02x): %d compressed bytes, ratio %.3f\n",
			c.Name, uint8(oi.Method()), oi.CompressedBytes(), oi.Ratio())
		fmt.Println("no codeword stream to disassemble (not a dictionary image)")
		return
	}
	p, err := objfile.ReadProgram(f)
	if err != nil {
		fatal(err)
	}
	lines := 0
	for idx, w := range p.Text {
		if name := p.SymbolAt(idx); name != "" {
			fmt.Printf("%s:\n", name)
		}
		fmt.Printf("  %06x: %08x  %s\n", p.WordAddr(idx), w, ppc.Disassemble(w))
		lines++
		if *limit > 0 && lines >= *limit {
			return
		}
	}
}

func disImage(img *core.Image, dictOnly bool, limit int) {
	fmt.Printf("%s: %s scheme, %d units, ratio %.3f\n",
		img.Name, img.Scheme, img.Units, img.Ratio())
	fmt.Printf("dictionary: %d entries, %d bytes\n", len(img.Entries), img.DictionaryBytes)
	for rank, e := range img.Entries {
		fmt.Printf("  #%-4d (%2d-bit codeword, %4d uses)", rank, img.Scheme.CodewordBits(rank), e.Uses)
		for _, w := range e.Words {
			fmt.Printf("  %s;", ppc.Disassemble(w))
		}
		fmt.Println()
		if limit > 0 && rank+1 >= limit && dictOnly {
			return
		}
	}
	if dictOnly {
		return
	}
	fmt.Println("stream:")
	rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)
	syms := map[int]string{}
	for _, s := range img.Symbols {
		syms[s.Word] = s.Name
	}
	lines := 0
	for u := 0; u < img.Units; {
		it, err := rdr.At(u)
		if err != nil {
			fatal(err)
		}
		if name, ok := syms[u]; ok {
			fmt.Printf("%s:\n", name)
		}
		if it.IsCodeword {
			fmt.Printf("  %06x: CODEWORD #%d\n", uint32(u)+img.Base, it.Rank)
		} else {
			fmt.Printf("  %06x: %s\n", uint32(u)+img.Base, ppc.Disassemble(it.Word))
		}
		u += it.Units
		lines++
		if limit > 0 && lines >= limit {
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccdis:", err)
	os.Exit(1)
}
