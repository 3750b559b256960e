package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/program"
)

// nativeEnc is the encoding name of an uncompressed run's bundle.
const nativeEnc = "native"

// bundleStepBudget is the execution budget of a bundle collection run,
// matching the profiled-run budget used everywhere else in the package.
const bundleStepBudget = 200_000_000

// CollectBundle runs one benchmark under one registered codec, or natively
// when enc is "native", with a full collector attached and returns the
// assembled run bundle: stats always; the size audit for every codec;
// execution profile, symbolized guest profile and folded stacks when the
// program executes on the simulator (the size-only comparators contribute
// their compression telemetry and audit only). The benchmark's
// dictionary-shape options matter only to schemed codecs; the codec's own
// scheme always overrides opt.Scheme.
func CollectBundle(c *Corpus, name, enc string, opt core.Options) (*obs.Bundle, error) {
	if enc == nativeEnc {
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		return runBundle(obs.NewCollector(obs.Identity{Bench: name, Codec: nativeEnc}), nil, p, name, enc)
	}
	cd, err := codec.ByName(enc)
	if err != nil {
		return nil, err
	}
	id := obs.Identity{
		Bench:  name,
		Codec:  strings.ToLower(cd.Name()),
		Method: uint8(cd.Method()),
	}

	if sc, ok := cd.(codec.Schemed); ok {
		o := opt
		o.Scheme = sc.Scheme()
		if o.MaxEntryLen == 0 {
			o.MaxEntryLen = 4
		}
		id.OptionsHash = o.Fingerprint()
		img, err := c.Image(name, o)
		if err != nil {
			return nil, err
		}
		// Dictionary images reconstruct their audit from their marks.
		col := obs.NewCollector(id)
		sa, err := img.SizeAudit()
		if err != nil {
			return nil, err
		}
		col.SetAudit(sa)
		return runBundle(col, img, nil, name, enc)
	}

	// Other codecs compress once for the audit and once with the
	// collector's recorder attached.
	col := obs.NewCollector(id)
	p, err := c.Program(name)
	if err != nil {
		return nil, err
	}
	sa, err := cd.Audit(p, codec.Options{})
	if err != nil {
		return nil, err
	}
	col.SetAudit(sa)
	ci, err := cd.Compress(p, codec.Options{Stats: col.Recorder()})
	if err != nil {
		return nil, err
	}
	ex, ok := ci.(codec.Executable)
	if !ok {
		// Size comparator: the bundle carries compression stats and the
		// audit, nothing execution-shaped.
		return col.Bundle()
	}
	return runBundle(col, ex, p, name, enc)
}

// runBundle executes exe (or p natively) under col and assembles the bundle.
func runBundle(col *obs.Collector, exe codec.Executable, p *program.Program, name, enc string) (*obs.Bundle, error) {
	if _, _, err := col.Run(exe, p, nil, bundleStepBudget, nil); err != nil {
		return nil, fmt.Errorf("bench: bundle run of %s/%s: %w", name, enc, err)
	}
	return col.Bundle()
}

// WriteBundles collects and writes one bundle per (benchmark, encoding)
// pair into dir/<bench>.<encoding>/. A nil or empty encs selects the
// native run plus every registered codec. The timestamp is stamped
// verbatim into each bundle's identity; pass "" for reproducible output.
func WriteBundles(c *Corpus, dir string, opt core.Options, encs []string, timestamp string) error {
	if len(encs) == 0 {
		encs = append([]string{nativeEnc}, AuditEncodings...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := c.Names()
	return c.each(len(names)*len(encs), func(k int) error {
		name, enc := names[k/len(encs)], encs[k%len(encs)]
		b, err := CollectBundle(c, name, enc, opt)
		if err != nil {
			return err
		}
		b.Identity.Timestamp = timestamp
		return obs.Write(filepath.Join(dir, name+"."+enc), b)
	})
}
