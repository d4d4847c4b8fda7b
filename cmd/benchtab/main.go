// Command benchtab regenerates the paper's tables and figures.
//
// Every figure of the evaluation section (Fig 2a-d, 3a-b, 4, 5a-b, 6a-b)
// plus the ELT-representation and real-time-pricing studies is a named
// experiment; benchtab runs one or all of them and prints the series the
// paper plots.
//
// Usage:
//
//	benchtab -list
//	benchtab -exp fig5a
//	benchtab -all -scale 0.01
//
// Measured columns run the Go engines on this machine at -scale times the
// paper's trial counts; model columns evaluate the calibrated i7-2600 /
// Tesla C2075 cost models at full paper size (see the internal/gpusim
// package doc).
package main

import (
	"flag"
	"fmt"
	"os"

	are "github.com/ralab/are"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiments and exit")
		seed    = flag.Uint64("seed", 1, "seed for synthetic data")
		scale   = flag.Float64("scale", 0.01, "fraction of paper-size trial counts for measured runs")
		catalog = flag.Int("catalog", 1_000_000, "stochastic catalog size")
		records = flag.Int("records", 20_000, "event losses per ELT")
		workers = flag.Int("workers", 0, "workers for measured parallel runs (0 = GOMAXPROCS)")
		format  = flag.String("format", "table", "output format: table|csv")
	)
	flag.Parse()

	if *list {
		for _, name := range are.Experiments() {
			fmt.Println(name)
		}
		return
	}

	cfg := are.ExperimentConfig{
		Seed:          *seed,
		Scale:         *scale,
		CatalogSize:   *catalog,
		RecordsPerELT: *records,
		Workers:       *workers,
	}

	names := []string{*exp}
	if *all {
		names = are.Experiments()
	} else if *exp == "" {
		fmt.Fprintln(os.Stderr, "benchtab: need -exp <name>, -all, or -list")
		os.Exit(2)
	}

	for _, name := range names {
		tab, err := are.RunExperiment(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			if err := tab.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
				os.Exit(1)
			}
		default:
			tab.Fprint(os.Stdout)
		}
	}
}
