package estimator

import (
	"fmt"
	"sort"
	"strings"
)

// Calibration layers profile feedback over the pure cost model: a set of
// per-call multipliers derived from observed runtime durations
// (observed / estimated), applied on top of the analytic tables. The pure
// cost model stays untouched — CallBreakdown and the gpumodel oracles are
// never scaled — so a nil Calibration reproduces the historical estimates
// byte for byte. A Calibration is immutable after construction; deriving an
// updated one (With) allocates a new value, which keeps concurrent
// estimator users race-free and lets caches key entries by Key.
type Calibration struct {
	factors map[string]float64
	key     string
}

// NewCalibration builds a calibration from per-call multipliers. Factors
// that are exactly 1 (no correction) are dropped, so a map of unit factors
// is equivalent to no calibration at all. Non-positive factors are invalid
// and rejected by returning nil (a calibration can speed a call up or slow
// it down, never erase or negate it).
func NewCalibration(factors map[string]float64) *Calibration {
	clean := make(map[string]float64, len(factors))
	for name, f := range factors {
		if f <= 0 || f != f { // non-positive or NaN
			return nil
		}
		if f == 1 {
			continue
		}
		clean[name] = f
	}
	if len(clean) == 0 {
		return nil
	}
	return &Calibration{factors: clean, key: calibKey(clean)}
}

// calibKey canonically encodes the factor set: sorted call names with
// fixed-precision factors, so two calibrations that would produce the same
// estimates share a key.
func calibKey(factors map[string]float64) string {
	names := make([]string, 0, len(factors))
	for name := range factors {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%d:%s=%.6g;", len(name), name, factors[name])
	}
	return b.String()
}

// With derives a calibration with one call's factor replaced, preserving
// immutability. The receiver may be nil (the uncalibrated base).
func (c *Calibration) With(call string, factor float64) *Calibration {
	merged := map[string]float64{}
	if c != nil {
		for name, f := range c.factors {
			merged[name] = f
		}
	}
	merged[call] = factor
	return NewCalibration(merged)
}

// Factor returns the multiplier for a call (1 when uncalibrated). A nil
// receiver is the identity calibration.
func (c *Calibration) Factor(call string) float64 {
	if c == nil {
		return 1
	}
	if f, ok := c.factors[call]; ok {
		return f
	}
	return 1
}

// Factors returns a copy of the non-unit factor map (nil when empty).
func (c *Calibration) Factors() map[string]float64 {
	if c == nil || len(c.factors) == 0 {
		return nil
	}
	out := make(map[string]float64, len(c.factors))
	for name, f := range c.factors {
		out[name] = f
	}
	return out
}

// Key returns the calibration's canonical fingerprint ("" for nil): the
// token the planner appends to its problem and plan keys so calibrated
// estimates never alias uncalibrated (or differently calibrated) ones.
func (c *Calibration) Key() string {
	if c == nil {
		return ""
	}
	return c.key
}
