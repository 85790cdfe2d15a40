package eval

import (
	"fmt"
	"sync"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/synth"
)

// Dataset bundles a (synthetic) citation network with its fitted recency
// exponent w, the per-dataset calibration step of §4.2.
type Dataset struct {
	Name string
	Net  *graph.Network
	// W is the exponential decay factor fitted to the tail of the
	// citation-age distribution (the paper reports −0.48 for hep-th,
	// −0.12 for APS, −0.16 for PMC and DBLP).
	W float64
}

// LoadDataset generates (or returns a cached copy of) the named dataset
// at the given scale. Scale 1 is the default size; smaller values
// generate proportionally smaller networks for quick runs.
func LoadDataset(name string, scale float64) (Dataset, error) {
	key := fmt.Sprintf("%s@%g", name, scale)
	cacheMu.Lock()
	if d, ok := cache[key]; ok {
		cacheMu.Unlock()
		return d, nil
	}
	cacheMu.Unlock()

	profile, err := synth.ProfileByName(name)
	if err != nil {
		return Dataset{}, err
	}
	if scale > 0 && scale != 1 {
		profile = profile.Scale(scale)
	}
	net, err := synth.Generate(profile)
	if err != nil {
		return Dataset{}, err
	}
	w, err := core.FitWFromNetwork(net, 10)
	if err != nil {
		return Dataset{}, fmt.Errorf("eval: fitting w for %s: %w", name, err)
	}
	d := Dataset{Name: name, Net: net, W: w}
	cacheMu.Lock()
	cache[key] = d
	cacheMu.Unlock()
	return d, nil
}

// LoadDatasets generates all four datasets of §4.1 in the paper's order.
// Generation runs in parallel (each dataset has its own deterministic
// seed, so the result is identical to sequential loading).
func LoadDatasets(scale float64) ([]Dataset, error) {
	profiles := synth.Profiles()
	out := make([]Dataset, len(profiles))
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			out[i], errs[i] = LoadDataset(name, scale)
		}(i, p.Name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

var (
	cacheMu sync.Mutex
	cache   = make(map[string]Dataset)
)

// TestRatios lists the §4.1 test ratios.
func TestRatios() []float64 { return []float64{1.2, 1.4, 1.6, 1.8, 2.0} }

// DefaultRatio is the default test ratio used throughout §4.
const DefaultRatio = 1.6
