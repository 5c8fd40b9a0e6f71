package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dataset parameterizes a workload run: the paper's Figure 11 trains
// annotations on one input set and evaluates on others whose sizes and
// value distributions differ. SizeScale scales structure footprints,
// SkewScale scales access skew (the Zipf exponent's excess over 1), and
// WeightShift perturbs per-structure access weights pseudo-randomly, all
// deterministically from Seed.
type Dataset struct {
	Name        string
	SizeScale   float64
	SkewScale   float64
	WeightShift float64
	Seed        int64
}

// Train is the canonical dataset the paper profiles on.
func Train() Dataset {
	return Dataset{Name: "train", SizeScale: 1, SkewScale: 1, Seed: 1}
}

// Variants returns alternative datasets for the Figure 11 robustness study:
// different problem sizes, skews, and access mixes.
func Variants() []Dataset {
	return []Dataset{
		{Name: "small", SizeScale: 0.6, SkewScale: 1.1, WeightShift: 0.15, Seed: 2},
		{Name: "large", SizeScale: 1.5, SkewScale: 0.9, WeightShift: 0.15, Seed: 3},
		{Name: "shifted", SizeScale: 1.0, SkewScale: 0.75, WeightShift: 0.30, Seed: 4},
	}
}

// DatasetByName resolves a dataset name: "train" (or "") is Train, any
// other name one of Variants. The error for an unknown name lists the
// valid ones.
func DatasetByName(name string) (Dataset, error) {
	if name == "" || name == Train().Name {
		return Train(), nil
	}
	names := []string{Train().Name}
	for _, v := range Variants() {
		if v.Name == name {
			return v, nil
		}
		names = append(names, v.Name)
	}
	return Dataset{}, fmt.Errorf("workloads: unknown dataset %q (have %s)", name, strings.Join(names, " "))
}

func (d Dataset) sizeScale() float64 {
	if d.SizeScale <= 0 {
		return 1
	}
	return d.SizeScale
}

func (d Dataset) skewScale() float64 {
	if d.SkewScale <= 0 {
		return 1
	}
	return d.SkewScale
}

// Validate reports a dataset whose scales are not finite and >= 0 (0
// means 1) or whose WeightShift is outside [0, 1].
func (d Dataset) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"SizeScale", d.SizeScale}, {"SkewScale", d.SkewScale}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("workloads: dataset %s %v is not a finite scale >= 0", f.name, f.v)
		}
	}
	if !(d.WeightShift >= 0 && d.WeightShift <= 1) {
		return fmt.Errorf("workloads: dataset WeightShift %v is outside [0, 1]", d.WeightShift)
	}
	return nil
}

// apply specializes a base spec to this dataset. Only a weight shift
// draws from the dataset's generator, so only a weight shift seeds one.
func (d Dataset) apply(s *Spec) {
	var rng *rand.Rand
	if d.WeightShift > 0 {
		rng = rand.New(rand.NewSource(d.Seed))
	}
	for i := range s.Structures {
		st := &s.Structures[i]
		size := uint64(float64(st.Size) * d.sizeScale())
		if size < pageBytes {
			size = pageBytes
		}
		st.Size = size
		if st.Pattern.Kind == Zipf || st.Pattern.Kind == ScatteredZipf {
			s1 := st.Pattern.zipfS()
			st.Pattern.ZipfS = 1 + (s1-1)*d.skewScale()
		}
		if d.WeightShift > 0 {
			st.Weight *= 1 + d.WeightShift*(2*rng.Float64()-1)
		}
	}
	s.Seed = d.Seed
}
