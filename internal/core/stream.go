package core

import (
	"context"
	"io"
)

// RunStream analyses a serialised YET without materialising it: a
// StreamSource decodes trials in batches of batchTrials on a prefetch
// goroutine (decode overlapping compute) while the pipeline's workers
// pull spans continuously — no per-batch join — so tables far larger
// than memory (a paper-size YET is ~4 GB) stream through a bounded
// working set. Results are bitwise identical to Run on the fully loaded
// table. For runs whose consumers are online sinks (and therefore need
// no O(layers x trials) tables at all), use RunPipeline directly.
func (e *Engine) RunStream(r io.Reader, batchTrials int, opt Options) (*Result, error) {
	src, err := NewStreamSource(r, batchTrials)
	if err != nil {
		return nil, err
	}
	return e.runMaterialised(context.Background(), src, opt)
}
