// Command datagen generates synthetic input data for the aggregate risk
// engine: a Year Event Table in the package's binary format, optionally
// derived from a rate-weighted stochastic catalog.
//
// Usage:
//
//	datagen -out yet.bin -trials 100000 -mean-events 1000
//	datagen -out yet.bin -trials 50000 -catalog 2000000 -weighted
//
// The output can be loaded by cmd/are or through are.ReadYET. Files
// written by older releases (YET format versions 1 and 2) are rejected
// on load; regenerate them with the same flags.
package main

import (
	"flag"
	"fmt"
	"os"

	are "github.com/ralab/are"
)

func main() {
	var (
		out        = flag.String("out", "yet.bin", "output file")
		seed       = flag.Uint64("seed", 1, "generation seed")
		trials     = flag.Int("trials", 100_000, "number of trials")
		meanEvents = flag.Float64("mean-events", 1000, "mean event occurrences per trial (Poisson)")
		fixed      = flag.Int("fixed-events", 0, "exact occurrences per trial (overrides -mean-events)")
		catalog    = flag.Int("catalog", 1_000_000, "stochastic catalog size")
		weighted   = flag.Bool("weighted", false, "draw events rate-weighted from a generated catalog instead of uniformly")
		eltOut     = flag.String("elt-out", "", "instead of a YET, write this many binary ELT files named <prefix>NNN.eltb")
		eltCount   = flag.Int("elt-count", 15, "with -elt-out: number of ELT files")
		eltRecords = flag.Int("elt-records", 20000, "with -elt-out: event losses per ELT")
	)
	flag.Parse()

	if *eltOut != "" {
		for i := 0; i < *eltCount; i++ {
			tbl, err := are.GenerateELT(uint32(i), are.ELTConfig{
				Seed: *seed, NumRecords: *eltRecords, CatalogSize: *catalog,
			})
			if err != nil {
				fail(err)
			}
			name := fmt.Sprintf("%s%03d.eltb", *eltOut, i)
			f, err := os.Create(name)
			if err != nil {
				fail(err)
			}
			n, err := are.WriteELT(f, tbl)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s: %d records, %d bytes\n", name, tbl.Len(), n)
		}
		return
	}

	var src are.EventSource = are.UniformEvents(*catalog)
	if *weighted {
		cat, err := are.GenerateCatalog(are.CatalogConfig{Seed: *seed, NumEvents: *catalog})
		if err != nil {
			fail(err)
		}
		src = cat
	}
	y, err := are.GenerateYET(src, are.YETConfig{
		Seed: *seed, Trials: *trials, MeanEvents: *meanEvents, FixedEvents: *fixed,
	})
	if err != nil {
		fail(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	n, err := are.WriteYET(f, y)
	if err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: %d trials, %d occurrences (mean %.1f/trial), %d bytes\n",
		*out, y.NumTrials(), y.NumOccurrences(), y.MeanTrialLen(), n)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
