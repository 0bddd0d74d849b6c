package stencil

import (
	"errors"
	"fmt"

	"hbsp/internal/kernels"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/topology"
)

const tagHalo = 1 << 12

// runMessagePassing is the shared driver of the MPI-style implementations:
// per iteration the borders are exchanged with non-blocking sends and
// receives, and the sweep is either performed entirely after the exchange
// completes (restructured = false, the plain MPI implementation of
// Section 8.3.2) or the ghost-independent interior is computed between
// posting and completing the exchange (restructured = true, the "MPI+R"
// variant of Table 8.2). computeSpeedup scales the per-rank computation rate
// and models ideal intra-node threading in the hybrid implementation. A
// synthetic run builds no grid: its sends carry the edge sizes and no
// payload, and its checksums are the decomposition's initialChecksums.
func runMessagePassing(m *platform.Machine, cfg Config, restructured bool, computeSpeedup float64, name string) (*RunResult, error) {
	if m == nil {
		return nil, errors.New("stencil: nil machine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if computeSpeedup <= 0 {
		return nil, fmt.Errorf("stencil: compute speedup %g must be positive", computeSpeedup)
	}
	d, err := Decompose(cfg.N, m.Procs())
	if err != nil {
		return nil, err
	}
	var checksums []float64
	if cfg.Synthetic {
		checksums = initialChecksums(d)
	} else {
		checksums = make([]float64, m.Procs())
	}

	res, err := mpi.Run(m, func(c *mpi.Comm) error {
		rank := c.Rank()
		h := haloOf(d, rank, 0)
		var grid *localGrid // a synthetic run has none: its edges are sizes
		if !cfg.Synthetic {
			grid = newLocalGrid(d, rank)
		}

		compute := func(k kernels.Kernel, cells int) {
			if cells <= 0 {
				return
			}
			c.Compute(m.KernelTime(rank, k, cells) / computeSpeedup)
		}

		for it := 0; it < cfg.Iterations; it++ {
			// Post receives first, then sends (the two stages of Fig. 8.3).
			var reqs []*simnet.Request
			for dir, nb := range h.neigh {
				if nb >= 0 {
					reqs = append(reqs, c.Irecv(nb, tagHalo+dir))
				}
			}
			for dir, nb := range h.neigh {
				if nb < 0 {
					continue
				}
				var edge any
				if grid != nil {
					edge = grid.edge(dir)
				}
				// The neighbour receives this edge as its ghost on the
				// opposite side, so it is tagged with that direction.
				reqs = append(reqs, c.Isend(nb, tagHalo+opposite(dir), 8*h.edge[dir], edge))
			}
			compute(kernels.Copy, h.exchanged)
			if restructured {
				compute(kernels.Stencil5, h.deep) // the ghost-independent interior
			}

			payloads := c.WaitAll(reqs)
			compute(kernels.Copy, h.exchanged)
			if restructured {
				compute(kernels.Stencil5, h.shadow)
			} else {
				compute(kernels.Stencil5, h.deep+h.shadow)
			}
			if grid == nil {
				continue
			}
			idx := 0
			for dir, nb := range h.neigh {
				if nb < 0 {
					continue
				}
				if values, ok := payloads[idx].([]float64); ok {
					grid.setGhost(dir, values)
				}
				idx++
			}
			// The deep interior reads no ghost: sweeping it here with the rest
			// changes no value.
			grid.sweep(d, rank, cfg.C)
		}
		if grid != nil {
			checksums[rank] = grid.checksum()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return summarize(name, m.Procs(), cfg, res.MakeSpan, checksums), nil
}

// RunMPI executes the plain MPI implementation (blocking border exchange
// followed by the full sweep).
func RunMPI(m *platform.Machine, cfg Config) (*RunResult, error) {
	return runMessagePassing(m, cfg, false, 1, "mpi")
}

// RunMPIRestructured executes the MPI+R variant: the ghost-independent
// interior is computed while the border exchange is in flight.
func RunMPIRestructured(m *platform.Machine, cfg Config) (*RunResult, error) {
	return runMessagePassing(m, cfg, true, 1, "mpi+r")
}

// RunHybrid executes the hybrid implementation of Section 8.3.3: one
// communicating process per node, with the node's cores cooperating on the
// local sweep (modelled as an ideal intra-node speedup scaled by a threading
// efficiency).
func RunHybrid(prof *platform.Profile, nodes int, cfg Config, threadEfficiency float64) (*RunResult, error) {
	if prof == nil {
		return nil, errors.New("stencil: nil profile")
	}
	if nodes < 1 || nodes > prof.Topology.Nodes {
		return nil, fmt.Errorf("stencil: %d nodes requested on a %d-node platform", nodes, prof.Topology.Nodes)
	}
	if threadEfficiency <= 0 || threadEfficiency > 1 {
		return nil, fmt.Errorf("stencil: thread efficiency %g outside (0,1]", threadEfficiency)
	}
	// One rank per node: round-robin placement over `nodes` ranks puts rank
	// i on node i.
	pl, err := prof.PlaceWith(nodes, topology.RoundRobin)
	if err != nil {
		return nil, err
	}
	m := prof.MachineFor(pl)
	speedup := float64(prof.Topology.CoresPerNode()) * threadEfficiency
	return runMessagePassing(m, cfg, true, speedup, "hybrid")
}
