package main

import (
	"hash/fnv"
	"math/rand"

	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
)

// Every workload draws its inputs from --seed alone, through one math/rand
// stream per workload, so the same seed gives the same op list byte for
// byte. A run consumes a prefix of its list; how long the prefix is depends
// only on how fast the ops complete.

// opListLen is the length of the warm-runs list and of the service
// workloads' lists together; a run wraps around its list only if it
// outlasts it.
const opListLen = 1 << 16

// newRand returns the workload's input stream for seed.
func newRand(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(int64(seed ^ h.Sum64())))
}

// runOp is one warm-runs op: a bundled program and the seed it runs at.
type runOp struct {
	Prog int    `json:"prog"`
	Seed uint64 `json:"seed"`
}

// runSeedsPerProg is how many run seeds each program draws from in
// warm-runs. It bounds the tree-engine reference runs the benchmark makes
// before timing to nine times this.
const runSeedsPerProg = 4

// warmOps returns n warm-runs ops over nprogs programs.
func warmOps(seed uint64, nprogs, n int) []runOp {
	rng := newRand(seed, "warm-runs")
	pool := make([][]uint64, nprogs)
	for p := range pool {
		for i := 0; i < runSeedsPerProg; i++ {
			pool[p] = append(pool[p], rng.Uint64()>>24)
		}
	}
	ops := make([]runOp, n)
	progs := rounds(rng, nprogs, n)
	for i := range ops {
		p := progs[i]
		ops[i] = runOp{Prog: p, Seed: pool[p][rng.Intn(runSeedsPerProg)]}
	}
	return ops
}

// rounds returns n program indices drawn in rounds: each round of nprogs
// ops is a seeded permutation of every program. Every program then has the
// same share of any run, whatever the seed, so percentiles over the mix do
// not move with the share of the slowest program.
func rounds(rng *rand.Rand, nprogs, n int) []int {
	out := make([]int, 0, n+nprogs)
	for len(out) < n {
		out = append(out, rng.Perm(nprogs)...)
	}
	return out[:n]
}

// Read kinds a fleet submitter alternates between after each job.
const (
	readProfiles = "profiles"
	readPGO      = "pgo"
)

// jobOp is one fleet or cluster op: a job of jobShards shards on a bundled
// program from Seed, then (fleet only) one read of ReadProg's fleet cell.
type jobOp struct {
	Prog     int    `json:"prog"`
	Seed     uint64 `json:"seed"`
	Read     string `json:"read,omitempty"`
	ReadProg int    `json:"read_prog,omitempty"`
}

const (
	// jobShards is the shard count of every job.
	jobShards = 4
	// jobSeedsPerProg is how many consecutive base seeds each program's
	// jobs draw from. Shard i of a job runs at its seed+i, so the jobs of
	// one program need jobSeedsPerProg+jobShards-1 reference runs.
	jobSeedsPerProg = 3
)

// jobOps returns n ops for each of submitters closed-loop submitters; with
// reads set, each op is followed by a read, alternating the two kinds.
func jobOps(seed uint64, workload string, nprogs, submitters, n int, reads bool) [][]jobOp {
	rng := newRand(seed, workload)
	base := make([]uint64, nprogs)
	for p := range base {
		base[p] = rng.Uint64() >> 24
	}
	out := make([][]jobOp, submitters)
	for w := range out {
		out[w] = make([]jobOp, n)
		progs := rounds(rng, nprogs, n)
		for i := range out[w] {
			p := progs[i]
			op := jobOp{Prog: p, Seed: base[p] + uint64(rng.Intn(jobSeedsPerProg))}
			if reads {
				op.Read = readProfiles
				if i%2 == 1 {
					op.Read = readPGO
				}
				op.ReadProg = rng.Intn(nprogs)
			}
			out[w][i] = op
		}
	}
	return out
}

// sweepOp is one cold-sweep op: a bundled program (Bench >= 0) or the
// randprog program of GenSeed (Bench == -1), run at Seed.
type sweepOp struct {
	Bench   int    `json:"bench"`
	GenSeed int64  `json:"gen_seed,omitempty"`
	Seed    uint64 `json:"seed"`
}

// sweepOps returns n cold-sweep ops alternating between a bundled program
// at its own seed, drawn in rounds, and a fresh generated program that
// accept admits. Generated programs run at their generator seed, the corpus
// convention.
func sweepOps(seed uint64, benchSeeds []uint64, n int, accept func(genSeed int64) bool) []sweepOp {
	rng := newRand(seed, "cold-sweep")
	ops := make([]sweepOp, n)
	benches := rounds(rng, len(benchSeeds), (n+1)/2)
	for i := range ops {
		if i%2 == 0 {
			b := benches[i/2]
			ops[i] = sweepOp{Bench: b, Seed: benchSeeds[b]}
			continue
		}
		g := rng.Int63()
		for !accept(g) {
			g = rng.Int63()
		}
		ops[i] = sweepOp{Bench: -1, GenSeed: g, Seed: uint64(g)}
	}
	return ops
}

// admitGenerated returns the filter cold-sweep applies to generated
// programs. It admits those the corpus harvest would — they compile and
// terminate within randprog's step bounds — whose analysis succeeds with a
// maximum degree no higher than maxDegree. Estimation work grows
// exponentially with the degree, so without the degree bound a few
// generated programs would take seconds each and dominate every run.
func admitGenerated(maxDegree int) func(genSeed int64) bool {
	return func(genSeed int64) bool {
		steps, err := randprog.MeasureSteps(genSeed)
		if err != nil || steps < randprog.MinUsefulSteps || steps > randprog.MaxOracleSteps {
			return false
		}
		prog, err := lang.Compile(randprog.SeedSource(genSeed))
		if err != nil {
			return false
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		return err == nil && info.MaxDegree() <= maxDegree
	}
}
