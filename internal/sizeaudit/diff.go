package sizeaudit

import "fmt"

// DiffRow is one function's size on each side of a comparison, in bits.
// A side that lacks the function contributes zero and clears its presence
// flag (so "absent" and "present but empty" stay distinguishable).
type DiffRow struct {
	Name  string `json:"name"`
	ABits int64  `json:"a_bits"`
	BBits int64  `json:"b_bits"`
	InA   bool   `json:"in_a"`
	InB   bool   `json:"in_b"`
}

// Delta is B−A in bits: negative means side B is smaller.
func (r DiffRow) Delta() int64 { return r.BBits - r.ABits }

// AuditDiff compares two audits function by function — native vs
// compressed, or one encoding against another.
type AuditDiff struct {
	ALabel string    `json:"a"`
	BLabel string    `json:"b"`
	ATotal int64     `json:"a_total_bits"`
	BTotal int64     `json:"b_total_bits"`
	Rows   []DiffRow `json:"rows"`
}

// Diff matches the two audits' rows by function name: side A's row order
// first (native order when A is a native audit), then rows only B has.
func Diff(a, b *Audit) *AuditDiff {
	d := &AuditDiff{
		ALabel: fmt.Sprintf("%s (%s)", a.Name, a.Encoding),
		BLabel: fmt.Sprintf("%s (%s)", b.Name, b.Encoding),
		ATotal: a.AttributedBits(),
		BTotal: b.AttributedBits(),
	}
	seen := map[string]bool{}
	for _, fa := range a.Funcs {
		row := DiffRow{Name: fa.Name, ABits: fa.Bits.Total(), InA: true}
		if fb, ok := b.FuncByName(fa.Name); ok {
			row.BBits = fb.Bits.Total()
			row.InB = true
		}
		seen[fa.Name] = true
		d.Rows = append(d.Rows, row)
	}
	for _, fb := range b.Funcs {
		if seen[fb.Name] {
			continue
		}
		d.Rows = append(d.Rows, DiffRow{Name: fb.Name, BBits: fb.Bits.Total(), InB: true})
	}
	return d
}
