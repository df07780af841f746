package main

import (
	"fmt"
	"math"

	"delphi/internal/bench"
)

// checkRun is the correctness gate every op passes before its time counts:
// the paper's ε-agreement and validity guarantees, a decision from every
// honest node, and no observable transport loss. FIN and Dolev decide
// inside the honest-input hull; Delphi's relaxed min-max validity allows
// max(ρ0, δ) beyond it.
func checkRun(spec bench.RunSpec, st *bench.RunStats) error {
	const ulps = 1e-9
	honest := spec.HonestSlots()
	if len(st.Outputs) != len(honest) {
		return fmt.Errorf("%d outputs from %d honest nodes", len(st.Outputs), len(honest))
	}
	if st.Spread > spec.Delphi.Eps+ulps {
		return fmt.Errorf("agreement violated: spread %g > eps %g", st.Spread, spec.Delphi.Eps)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range honest {
		lo = math.Min(lo, spec.Inputs[i])
		hi = math.Max(hi, spec.Inputs[i])
	}
	slack := ulps
	if spec.Protocol == bench.ProtoDelphi {
		slack += math.Max(spec.Delphi.Rho0, hi-lo)
	}
	for _, v := range st.Outputs {
		if math.IsNaN(v) || v < lo-slack || v > hi+slack {
			return fmt.Errorf("validity violated: output %g outside hull [%g, %g] +- %g", v, lo, hi, slack)
		}
	}
	if st.TransportDrops != 0 {
		return fmt.Errorf("%d transport drops", st.TransportDrops)
	}
	return nil
}

// simFingerprint is what must be bit-equal when the simulator repeats a
// spec: the determinism contract the byte-identity goldens gate.
type simFingerprint struct {
	latency int64
	bytes   int64
	msgs    int
}

func fingerprint(st *bench.RunStats) simFingerprint {
	return simFingerprint{int64(st.Latency), st.TotalBytes, st.TotalMsgs}
}

// checkService applies the service-mode accounting identities: every
// arrival is decided (nothing shed or failed on these workloads, which size
// the queue to hold every round), every decision reaches every
// representative subscriber or is counted as dropped by it, and the
// transports lost nothing.
func checkService(rep *bench.ServiceReport, rounds, representatives int) error {
	switch {
	case rep.Arrived != rep.Decided+rep.Shed+rep.Failed:
		return fmt.Errorf("accounting: arrived %d != decided %d + shed %d + failed %d",
			rep.Arrived, rep.Decided, rep.Shed, rep.Failed)
	case rep.Arrived != rounds:
		return fmt.Errorf("%d of %d rounds arrived", rep.Arrived, rounds)
	case rep.Shed != 0 || rep.Failed != 0:
		return fmt.Errorf("shed %d, failed %d rounds", rep.Shed, rep.Failed)
	case rep.DeliveredUpdates+rep.SubDropped != uint64(rep.Decided*representatives):
		return fmt.Errorf("fan-out: delivered %d + dropped %d != decided %d x %d subscribers",
			rep.DeliveredUpdates, rep.SubDropped, rep.Decided, representatives)
	case rep.TransportDrops != 0:
		return fmt.Errorf("%d transport drops", rep.TransportDrops)
	}
	return nil
}
