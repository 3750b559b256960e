package sizeaudit

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV emits one record per row — bench, encoding, function, per-class
// bit counts and the row total — with a header. Bit counts keep the
// records exact; divide by 8 for bytes.
func (a *Audit) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"name", "encoding", "function"}
	for _, c := range Classes() {
		header = append(header, c.String()+"_bits")
	}
	header = append(header, "total_bits")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, f := range a.Funcs {
		rec := []string{a.Name, a.Encoding, f.Name}
		for _, c := range Classes() {
			rec = append(rec, strconv.FormatInt(f.Bits[c], 10))
		}
		rec = append(rec, strconv.FormatInt(f.Bits.Total(), 10))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFolded emits the audit as folded stacks — one line per non-empty
// (function, class) pair, "name;function;class bits" — the input format of
// standard flamegraph tooling (the same shape guestprof.WriteFolded uses
// for cycles, with bits as the count so values stay integral). Lines sort
// lexicographically for deterministic output.
func (a *Audit) WriteFolded(w io.Writer) error {
	var lines []string
	for _, f := range a.Funcs {
		for _, c := range Classes() {
			if f.Bits[c] == 0 {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s;%s;%s %d", a.Name, f.Name, c, f.Bits[c]))
		}
	}
	sort.Strings(lines)
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}
