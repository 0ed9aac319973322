package main

import (
	"math"
	"math/rand"
	"sort"

	"realhf"
)

// Inputs are generated here, from the workload seed alone. The program under
// test only ever sees the generated ExperimentConfigs.

// newRand derives an independent stream for one purpose of one workload.
func newRand(seed int64, purpose string) *rand.Rand {
	h := uint64(1469598103934665603)
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h>>1)))
}

// coldStratum is one cell of the cold-solve config grid.
type coldStratum struct {
	algo, actor string
	nodes       int
	option      string // "", "overlap" or "offload"
}

// coldGrid is one cycle of the cold-solve stream. Every cycle plans each
// stratum once, in a seeded order, so every run sees the same mix of
// algorithms, model sizes and cluster sizes however many cycles it
// completes. Small clusters dominate, as they dominate real requests; the
// three 32-node strata are the top eighth of op times, where the 90th
// percentile lands. 34B actors only appear on two or more nodes.
var coldGrid = []coldStratum{
	{"ppo", "7b", 1, ""}, {"ppo", "13b", 1, "overlap"}, {"ppo", "7b", 2, ""}, {"ppo", "34b", 4, ""},
	{"ppo", "13b", 8, ""}, {"ppo", "7b", 32, ""},
	{"grpo", "7b", 1, "offload"}, {"grpo", "13b", 2, ""}, {"grpo", "34b", 2, ""}, {"grpo", "7b", 4, ""},
	{"grpo", "13b", 16, ""}, {"grpo", "34b", 32, ""},
	{"dpo", "7b", 1, ""}, {"dpo", "13b", 1, ""}, {"dpo", "34b", 2, "offload"}, {"dpo", "7b", 8, ""},
	{"dpo", "13b", 4, ""}, {"dpo", "7b", 32, ""},
	{"remax", "7b", 1, "overlap"}, {"remax", "13b", 2, ""}, {"remax", "34b", 4, ""}, {"remax", "7b", 2, ""},
	{"remax", "13b", 8, ""}, {"remax", "7b", 16, ""},
}

// coldRequest is one cold-solve op: a config and its planning options.
type coldRequest struct {
	Cfg    realhf.ExperimentConfig
	Algo   string
	Option string
}

func (r coldRequest) opts() []realhf.AutoOption {
	switch r.Option {
	case "overlap":
		return []realhf.AutoOption{realhf.WithOverlapAwareSearch()}
	case "offload":
		return []realhf.AutoOption{realhf.WithOffloadSearch()}
	}
	return nil
}

// gridShapes gives each of a grid's n strata its prompt length, generation
// length and per-node batch. The values cycle through a fixed multiset in a
// fixed order, so shapes vary across strata but every seed plans the same
// mix: what the seed varies is the order of the strata and each request's
// search seed. Per-run figures then reflect the program, not the draw.
func gridShapes(n int) (prompt, gen, batchPerNode []int) {
	r := newRand(0, "grid-shapes")
	pick := func(vals []int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = vals[i%len(vals)]
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return pick([]int{256, 512, 1024}), pick([]int{256, 512, 1024}), pick([]int{16, 32, 64})
}

func mustRPCs(algo, actor string) []realhf.ModelFunctionCallDef {
	rpcs, err := realhf.AlgoRPCs(algo, "llama"+actor, "llama7b-critic")
	if err != nil {
		panic(err) // the grids only name presets that exist
	}
	return rpcs
}

// coldStream returns the first n cold-solve requests for seed. Every
// request carries a distinct search seed, so no two ops share a plan-cache
// entry.
func coldStream(seed int64, n int, grid []coldStratum) []coldRequest {
	r := newRand(seed, "cold-solve")
	prompt, gen, bpn := gridShapes(len(grid))
	var out []coldRequest
	for len(out) < n {
		for _, gi := range r.Perm(len(grid)) {
			s := grid[gi]
			cfg := realhf.ExperimentConfig{
				Nodes:     s.nodes,
				BatchSize: bpn[gi] * s.nodes,
				PromptLen: prompt[gi],
				GenLen:    gen[gi],
				RPCs:      mustRPCs(s.algo, s.actor),
				Seed:      seed*100003 + int64(len(out)) + 1,
			}
			out = append(out, coldRequest{Cfg: cfg, Algo: s.algo, Option: s.option})
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// popularGrid is the serve-mixed popular set's strata: small clusters, where
// most plan-service traffic sits.
var popularGrid = []coldStratum{
	{"ppo", "7b", 1, ""}, {"ppo", "13b", 1, ""}, {"ppo", "7b", 2, ""}, {"ppo", "34b", 2, ""},
	{"grpo", "7b", 1, ""}, {"grpo", "13b", 2, ""}, {"dpo", "7b", 1, ""}, {"dpo", "13b", 2, ""},
	{"dpo", "34b", 2, ""}, {"remax", "7b", 1, ""}, {"remax", "13b", 1, ""}, {"remax", "7b", 2, ""},
}

// popularSet returns n distinct configs, in popularity order (index 0 is
// the most requested).
func popularSet(seed int64, n int) []coldRequest {
	return coldStream(seed^0x5eed, n, popularGrid)
}

// serveKind classifies one serve-mixed request.
type serveKind int

const (
	kindPopular serveKind = iota // a popular-set config, usually a plan-cache hit
	kindNovel                    // a config never seen before: a cold solve
	kindTenant                   // the calibrated second tenant's traffic
)

// serveRequest is one request of the serve-mixed stream.
type serveRequest struct {
	Kind  serveKind
	Index int // popular-set index; -1 for novel configs
	Cfg   realhf.ExperimentConfig
	Calib map[string]float64
}

// serveMix fixes the serve-mixed traffic shape.
type serveMix struct {
	Popular    int     // popular-set size; above the 64-entry plan cache
	ZipfS      float64 // popularity exponent
	NovelFrac  float64
	TenantFrac float64
	TenantSet  int // the tenant asks for the first TenantSet popular configs
}

// tenantCalibration is the second tenant's per-call cost-model multipliers:
// its generation runs slower and its training faster than the pure model.
var tenantCalibration = map[string]float64{"actor/GENERATE": 1.25, "actor/TRAIN_STEP": 0.9}

// serveStream returns the first n requests of the serve-mixed stream.
func serveStream(seed int64, n int, mix serveMix, popular []coldRequest) []serveRequest {
	r := newRand(seed, "serve-mixed")
	cum := make([]float64, mix.Popular)
	var acc float64
	for i := range cum {
		acc += 1 / math.Pow(float64(i+1), mix.ZipfS)
		cum[i] = acc
	}
	tenant := tenantIndices(popular, mix.TenantSet)
	kinds := make([]serveKind, n)
	novels := 0
	for i := range kinds {
		switch u := r.Float64(); {
		case u < mix.NovelFrac:
			kinds[i] = kindNovel
			novels++
		case u < mix.NovelFrac+mix.TenantFrac:
			kinds[i] = kindTenant
		}
	}
	novel := coldStream(seed^0x0ddba11, novels, popularGrid)
	out := make([]serveRequest, 0, n)
	for _, k := range kinds {
		switch k {
		case kindNovel:
			cfg := novel[0].Cfg
			novel = novel[1:]
			cfg.Seed += 7_000_000 // distinct from every popular config
			out = append(out, serveRequest{Kind: kindNovel, Index: -1, Cfg: cfg})
		case kindTenant:
			i := tenant[r.Intn(len(tenant))]
			out = append(out, serveRequest{Kind: kindTenant, Index: i, Cfg: popular[i].Cfg, Calib: tenantCalibration})
		default:
			i := sort.SearchFloat64s(cum, r.Float64()*acc)
			if i >= len(cum) {
				i = len(cum) - 1
			}
			out = append(out, serveRequest{Kind: kindPopular, Index: i, Cfg: popular[i].Cfg})
		}
	}
	return out
}

// tenantIndices are the popular-set indices the calibrated tenant asks
// for: the first n PPO configs, whose calls its calibration names.
func tenantIndices(popular []coldRequest, n int) []int {
	var out []int
	for i, q := range popular {
		if q.Algo == "ppo" && len(out) < n {
			out = append(out, i)
		}
	}
	return out
}

// trainerInput is the trainer-campaign session: one PPO 7B+7B config on 2
// nodes and its generation-length schedule.
type trainerInput struct {
	Cfg      realhf.ExperimentConfig
	Schedule []int // GenLen per schedule slot; iteration i uses Schedule[(i/Period)%len]
	Period   int
}

func (t trainerInput) genLen(iter int) int {
	return t.Schedule[(iter/t.Period)%len(t.Schedule)]
}

// trainerStream draws the trainer-campaign input for seed: the seed orders
// the four generation lengths and nudges the prompt length by under 2%, so
// every seed runs a campaign of the same shape and nearly the same cost.
func trainerStream(seed int64) trainerInput {
	r := newRand(seed, "trainer-campaign")
	sched := []int{1024, 512, 256, 128}
	r.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	return trainerInput{
		Cfg: realhf.ExperimentConfig{
			Nodes:     2,
			BatchSize: 256,
			PromptLen: 504 + 4*r.Intn(5),
			GenLen:    sched[0],
			RPCs:      realhf.PPORPCs("llama7b", "llama7b-critic"),
		},
		Schedule: sched,
		Period:   4,
	}
}
