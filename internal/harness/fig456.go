package harness

import (
	"fmt"

	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/gpusim"
)

// Figures 4-5: the GPU kernels on the Tesla C2075 model (this machine has
// no CUDA device; the gpusim package doc describes the model). Figure 6:
// summary comparison and phase breakdown, combining measured Go engines
// with the device models.

func init() {
	register("fig4", "GPU basic kernel: threads per CUDA block vs time (paper: best ~256)", fig4)
	register("fig5a", "GPU optimised kernel: chunk size vs time (paper: 38.47s->22.72s at chunk 4; flat to 12; cliff beyond)", fig5a)
	register("fig5b", "GPU optimised kernel: threads per block vs time at chunk 4 (paper: <=192 threads, small gains)", fig5b)
	register("fig6a", "summary: total time per implementation (paper: GPU basic 3.2x, optimised 5.4x)", fig6a)
	register("fig6b", "phase breakdown: fetch / ELT lookup / financial / layer terms (paper: ~78% lookup)", fig6b)
}

func fig4(cfg Config) (*Table, error) {
	d, w := gpusim.TeslaC2075(), gpusim.PaperWorkload()
	t := &Table{Name: "fig4", Title: "basic kernel: threads per block vs execution time (model)",
		Columns: []string{"threads/block", "model_s", "active_warps/SM", "blocks/SM"}}
	for _, b := range []int{128, 192, 256, 320, 384, 448, 512, 576, 640} {
		e, err := gpusim.SimulateGPU(d, w, gpusim.Kernel{ThreadsPerBlock: b})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(b), fmt.Sprintf("%.2f", e.Seconds), fmt.Sprint(e.ActiveWarps), fmt.Sprint(e.BlocksPerSM))
	}
	t.Notes = append(t.Notes,
		"expected shape: 128 threads/block under-occupies; best at 256; flat/diminishing beyond")
	return t, nil
}

func fig5a(cfg Config) (*Table, error) {
	d, w := gpusim.TeslaC2075(), gpusim.PaperWorkload()
	t := &Table{Name: "fig5a", Title: "optimised kernel: chunk size vs execution time (model, 64 threads/block)",
		Columns: []string{"chunk", "model_s", "spill_frac", "active_warps/SM", "measured_go_s(chunked,scaled)"}}

	// The Go chunked engine is also measured, at scale, to show the
	// algorithmic variant is implemented end to end (its cache behaviour
	// differs from GPU shared memory, so the model carries the shape).
	trials := cfg.scaledTrials(200_000)
	p, y, err := buildInputs(cfg, 1, 15, trials, 1000)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(p, cfg.CatalogSize, core.LookupDirect)
	if err != nil {
		return nil, err
	}
	for _, c := range []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24} {
		e, err := gpusim.SimulateGPU(d, w, gpusim.Kernel{ThreadsPerBlock: 64, ChunkSize: c})
		if err != nil {
			return nil, err
		}
		el, _, err := measure(eng, y, core.Options{Workers: 1, ChunkSize: c, SkipValidation: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(c), fmt.Sprintf("%.2f", e.Seconds),
			fmt.Sprintf("%.2f", e.SpillFraction), fmt.Sprint(e.ActiveWarps), seconds(el))
	}
	t.Notes = append(t.Notes,
		"expected shape: big gain by chunk 4, flat plateau to 12, rapid deterioration once shared memory spills")
	return t, nil
}

func fig5b(cfg Config) (*Table, error) {
	d, w := gpusim.TeslaC2075(), gpusim.PaperWorkload()
	t := &Table{Name: "fig5b", Title: "optimised kernel: threads per block vs execution time at chunk 4 (model)",
		Columns: []string{"threads/block", "model_s", "active_warps/SM"}}
	maxB := gpusim.MaxThreadsForChunk(d, 4)
	for b := 32; b <= maxB; b += 32 {
		e, err := gpusim.SimulateGPU(d, w, gpusim.Kernel{ThreadsPerBlock: b, ChunkSize: 4})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(b), fmt.Sprintf("%.2f", e.Seconds), fmt.Sprint(e.ActiveWarps))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("maximum supported threads/block at chunk 4 is %d (shared-memory capacity; paper: 192)", maxB),
		"expected shape: small, insignificant variation across the sweep")
	return t, nil
}

func fig6a(cfg Config) (*Table, error) {
	t := &Table{Name: "fig6a", Title: "total execution time by implementation",
		Columns: []string{"implementation", "time_s", "speedup_vs_sequential", "source"}}

	// Measured Go engines at scale.
	trials := cfg.scaledTrials(1_000_000)
	p, y, err := buildInputs(cfg, 1, 15, trials, 1000)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(p, cfg.CatalogSize, core.LookupDirect)
	if err != nil {
		return nil, err
	}
	seq, _, err := measure(eng, y, core.Options{Workers: 1, SkipValidation: true})
	if err != nil {
		return nil, err
	}
	par, _, err := measure(eng, y, core.Options{Workers: cfg.Workers, SkipValidation: true})
	if err != nil {
		return nil, err
	}
	chk, _, err := measure(eng, y, core.Options{Workers: cfg.Workers, ChunkSize: 4, SkipValidation: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("go sequential", seconds(seq), "1.00x", fmt.Sprintf("measured, %d trials", trials))
	t.AddRow("go parallel", seconds(par), fmt.Sprintf("%.2fx", seq.Seconds()/par.Seconds()),
		fmt.Sprintf("measured, %d workers", maxProcs()))
	t.AddRow("go parallel+chunked", seconds(chk), fmt.Sprintf("%.2fx", seq.Seconds()/chk.Seconds()), "measured")
	t.Notes = append(t.Notes,
		"CPU chunking adding overhead rather than speedup matches the paper (§III.C.1:",
		"\"including the chunking method described later for GPUs ... not successful ... on our multi-core CPU\")")

	// Modelled paper platforms at full size.
	w := gpusim.PaperWorkload()
	cpu1, _ := gpusim.SimulateCPU(gpusim.Corei7_2600(), w, 1)
	cpu8, _ := gpusim.SimulateCPU(gpusim.Corei7_2600(), w, 8)
	basic, _ := gpusim.SimulateGPU(gpusim.TeslaC2075(), w, gpusim.Kernel{ThreadsPerBlock: 256})
	opt, _ := gpusim.SimulateGPU(gpusim.TeslaC2075(), w, gpusim.Kernel{ThreadsPerBlock: 64, ChunkSize: 4})
	t.AddRow("C++ sequential (i7-2600)", fmt.Sprintf("%.1f", cpu1.Seconds), "1.00x", "model, 1M trials")
	t.AddRow("OpenMP 8 threads (i7-2600)", fmt.Sprintf("%.1f", cpu8.Seconds),
		fmt.Sprintf("%.2fx", cpu1.Seconds/cpu8.Seconds), "model (paper: 2.6x)")
	t.AddRow("CUDA basic (C2075)", fmt.Sprintf("%.1f", basic.Seconds),
		fmt.Sprintf("%.2fx", cpu1.Seconds/basic.Seconds), "model (paper: 3.2x, 38.47s)")
	t.AddRow("CUDA optimised (C2075)", fmt.Sprintf("%.1f", opt.Seconds),
		fmt.Sprintf("%.2fx", cpu1.Seconds/opt.Seconds), "model (paper: 5.4x, 22.72s)")
	return t, nil
}

func fig6b(cfg Config) (*Table, error) {
	trials := cfg.scaledTrials(200_000)
	p, y, err := buildInputs(cfg, 1, 15, trials, 1000)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(p, cfg.CatalogSize, core.LookupDirect)
	if err != nil {
		return nil, err
	}
	_, res, err := measure(eng, y, core.Options{Workers: 1, Profile: true, SkipValidation: true})
	if err != nil {
		return nil, err
	}
	pct := res.Phases.Percentages()
	t := &Table{Name: "fig6b", Title: "share of execution time by phase",
		Columns: []string{"phase", "measured_go_%", "model_i7_%", "paper_%"}}
	cpu, err := gpusim.SimulateCPU(gpusim.Corei7_2600(), gpusim.PaperWorkload(), 1)
	if err != nil {
		return nil, err
	}
	t.AddRow("event fetch", fmt.Sprintf("%.1f", pct[0]), fmt.Sprintf("%.1f", cpu.FetchShare*100), "~4")
	t.AddRow("ELT lookup (direct access)", fmt.Sprintf("%.1f", pct[1]), fmt.Sprintf("%.1f", cpu.LookupShare*100), "78")
	t.AddRow("financial terms", fmt.Sprintf("%.1f", pct[2]), fmt.Sprintf("%.1f", cpu.IntermediateShare*100), "~12")
	t.AddRow("layer terms", fmt.Sprintf("%.1f", pct[3]), fmt.Sprintf("%.1f", cpu.ComputeShare*100), "~6")
	t.Notes = append(t.Notes,
		"expected shape: ELT lookup dominates (the analysis is memory-access bound)",
		"paper column: 78% lookup reported in §IV; remaining split approximate from Fig 6b")
	return t, nil
}
