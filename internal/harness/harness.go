// Package harness regenerates every figure of the paper's evaluation
// (§III) as a printable table: the sequential scaling sweeps (Fig 2), the
// multi-core experiments (Fig 3), the GPU experiments (Figs 4-5), the
// summary comparison and phase breakdown (Fig 6), plus the ELT
// data-structure comparison and the real-time pricing scenario discussed
// in §III.B and §IV.
//
// Each experiment combines two sources:
//
//   - measured wall-clock times of the Go engines on this machine, at a
//     configurable fraction of the paper's 1M-trial workload
//     (Config.Scale), and
//   - the calibrated hardware models of package gpusim at full paper
//     size, which reproduce the multi-core contention and GPU behaviour
//     of the paper's platforms (this repository substitutes models for
//     the i7-2600/Tesla C2075 testbed; see package gpusim's doc).
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

// Table is a rendered experiment result.
type Table struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Config controls experiment execution.
type Config struct {
	// Seed drives all synthetic data generation.
	Seed uint64

	// Scale multiplies the paper's trial counts for the measured runs
	// (1.0 = full paper size: 1M trials x 1000 events, ~4 GB of YET).
	// Default 0.01 (10k trials), which preserves per-trial behaviour.
	Scale float64

	// CatalogSize is the stochastic catalog size behind the direct
	// access tables. The paper's sizing example uses 2M events;
	// default 1M to keep the packed tables comfortable in memory.
	CatalogSize int

	// RecordsPerELT is the non-zero loss count per ELT (paper: 10k-30k).
	RecordsPerELT int

	// Workers caps measured-run parallelism; 0 = GOMAXPROCS.
	Workers int
}

func (c *Config) setDefaults() {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.CatalogSize <= 0 {
		c.CatalogSize = 1_000_000
	}
	if c.RecordsPerELT <= 0 {
		c.RecordsPerELT = 20_000
	}
}

// scaledTrials converts a paper-size trial count through Config.Scale,
// with a floor that keeps measurements meaningful.
func (c Config) scaledTrials(paperTrials int) int {
	n := int(float64(paperTrials) * c.Scale)
	if n < 16 {
		n = 16
	}
	return n
}

// Experiment is a named, runnable reproduction of one paper figure.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) (*Table, error)
}

var registry = map[string]Experiment{}

func register(name, title string, run func(Config) (*Table, error)) {
	registry[name] = Experiment{Name: name, Title: title, Run: run}
}

// Names lists registered experiments in stable order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the named experiment.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Run executes the named experiment.
func Run(name string, cfg Config) (*Table, error) {
	cfg.setDefaults()
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(cfg)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, name := range Names() {
		tab, err := Run(name, cfg)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
		tab.Fprint(w)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared measurement helpers.

// buildInputs constructs a synthetic portfolio and YET of the given shape.
func buildInputs(cfg Config, layers, eltsPerLayer, trials, eventsPerTrial int) (*layer.Portfolio, *yet.Table, error) {
	p, err := layer.GeneratePortfolio(layer.GenConfig{
		Seed:          cfg.Seed,
		NumLayers:     layers,
		ELTsPerLayer:  eltsPerLayer,
		ELTPool:       layers * eltsPerLayer, // distinct ELTs, like the paper's sizing
		RecordsPerELT: cfg.RecordsPerELT,
		CatalogSize:   cfg.CatalogSize,
	})
	if err != nil {
		return nil, nil, err
	}
	y, err := yet.Generate(yet.UniformSource(cfg.CatalogSize), yet.Config{
		Seed:        cfg.Seed + 1,
		Trials:      trials,
		FixedEvents: eventsPerTrial,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, y, nil
}

// measure runs the engine and returns elapsed wall time and result. The
// run is repeated measureReps times and the minimum is reported, damping
// scheduler and GC noise on small scaled inputs.
func measure(e *core.Engine, y *yet.Table, opt core.Options) (time.Duration, *core.Result, error) {
	var best time.Duration
	var res *core.Result
	for i := 0; i < measureReps; i++ {
		start := time.Now()
		r, err := e.Run(y, opt)
		el := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		if res == nil || el < best {
			best, res = el, r
		}
	}
	return best, res, nil
}

// measureReps is the best-of-N repetition count used by measure.
const measureReps = 3

func seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

func maxProcs() int { return runtime.GOMAXPROCS(0) }

// WriteCSV renders the table as CSV (header row then data rows); notes
// are emitted as comment-style trailing rows prefixed with "#".
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		rec := make([]string, len(t.Columns))
		rec[0] = "# " + n
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
