package stamp

import "fmt"

// The nine evaluated workloads: STAMP minus bayes (excluded by the paper
// for its unpredictable behaviour), with kmeans and vacation in both their
// low-contention and high-contention (+) configurations.
//
// Profiles are calibrated to the STAMP characterization (Minh et al.,
// IISWC'08): relative transaction lengths, read/write-set sizes, fraction
// of time inside transactions, and contention. Labyrinth's contiguous
// path writes and yada's exception rate reproduce the capacity-overflow
// and fault behaviour the paper's Figs. 9-11 hinge on.

// Genome: long transactions over a large shared hash/index, low contention,
// nearly all time transactional.
func Genome() Profile {
	return Profile{
		Name: "genome", TotalSections: 1280,
		TxReads: 24, TxWrites: 7, ComputePerOp: 3,
		NonTxCompute: 60, NonTxMemOps: 4,
		HotLines: 2048, WarmLines: 8192, PrivateLines: 512,
		HotWriteFrac: 0.55, HotReadFrac: 0.30, WarmReadFrac: 0.45,
		BarrierEvery: 80,
	}
}

// Intruder: short transactions, small sets, high contention on shared
// queues; only about a third of the time transactional.
func Intruder() Profile {
	return Profile{
		Name: "intruder", TotalSections: 2560,
		TxReads: 10, TxWrites: 5, ComputePerOp: 2,
		NonTxCompute: 130, NonTxMemOps: 6,
		HotLines: 96, WarmLines: 1024, PrivateLines: 256,
		HotWriteFrac: 0.70, HotReadFrac: 0.50, WarmReadFrac: 0.25,
	}
}

// Kmeans (low contention): tiny transactions updating cluster centers,
// little transactional time.
func Kmeans() Profile {
	return Profile{
		Name: "kmeans", TotalSections: 2560,
		TxReads: 6, TxWrites: 2, ComputePerOp: 3,
		NonTxCompute: 420, NonTxMemOps: 10,
		HotLines: 512, WarmLines: 2048, PrivateLines: 256,
		HotWriteFrac: 0.50, HotReadFrac: 0.30, WarmReadFrac: 0.30,
		BarrierEvery: 128,
	}
}

// KmeansHigh (kmeans+): fewer clusters — much hotter center lines.
func KmeansHigh() Profile {
	p := Kmeans()
	p.Name = "kmeans+"
	p.HotLines = 48
	p.NonTxCompute = 120
	p.NonTxMemOps = 6
	return p
}

// Labyrinth: very long transactions writing a contiguous routing path
// through a shared grid; write sets far exceed the L1 ways, so capacity
// overflow dominates; bodies are regenerated per attempt (re-routing).
func Labyrinth() Profile {
	return Profile{
		Name: "labyrinth", TotalSections: 144,
		TxReads: 60, TxWrites: 0, ComputePerOp: 2,
		PathLength:   180,
		NonTxCompute: 40, NonTxMemOps: 2,
		HotLines: 4096, WarmLines: 0, PrivateLines: 512,
		HotWriteFrac: 1.0, HotReadFrac: 0.60, WarmReadFrac: 0,
		Regenerate: true,
	}
}

// SSCA2: tiny transactions on a huge graph, very low contention, mostly
// non-transactional.
func SSCA2() Profile {
	return Profile{
		Name: "ssca2", TotalSections: 3840,
		TxReads: 3, TxWrites: 2, ComputePerOp: 2,
		NonTxCompute: 90, NonTxMemOps: 5,
		HotLines: 4096, WarmLines: 4096, PrivateLines: 256,
		HotWriteFrac: 0.85, HotReadFrac: 0.40, WarmReadFrac: 0.30,
		BarrierEvery: 192,
	}
}

// Vacation (low contention): medium transactions traversing shared trees
// (large read sets) with few updates.
func Vacation() Profile {
	return Profile{
		Name: "vacation", TotalSections: 1280,
		TxReads: 50, TxWrites: 8, ComputePerOp: 2,
		NonTxCompute: 60, NonTxMemOps: 3,
		HotLines: 1024, WarmLines: 16384, PrivateLines: 256,
		HotWriteFrac: 0.60, HotReadFrac: 0.10, WarmReadFrac: 0.70,
	}
}

// VacationHigh (vacation+): more update-heavy queries on fewer relations.
func VacationHigh() Profile {
	p := Vacation()
	p.Name = "vacation+"
	p.TxReads = 56
	p.TxWrites = 10
	p.HotLines = 192
	p.HotWriteFrac = 0.80
	p.HotReadFrac = 0.25
	p.WarmReadFrac = 0.55
	return p
}

// Yada: long transactions with large mixed sets, frequent exceptions
// (the paper: "many exceptions, which the best-effort HTM and LockillerTM
// do not support"), dynamic re-triangulation on retry.
func Yada() Profile {
	return Profile{
		Name: "yada", TotalSections: 400,
		TxReads: 45, TxWrites: 28, ComputePerOp: 2,
		NonTxCompute: 30, NonTxMemOps: 2,
		HotLines: 2048, WarmLines: 2048, PrivateLines: 512,
		HotWriteFrac: 0.55, HotReadFrac: 0.45, WarmReadFrac: 0.30,
		FaultProb: 0.30, Regenerate: true,
	}
}

// Workloads returns the nine profiles in the paper's plotting order.
func Workloads() []Profile {
	return []Profile{
		Genome(), Intruder(), Kmeans(), KmeansHigh(), Labyrinth(),
		SSCA2(), Vacation(), VacationHigh(), Yada(),
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Workloads() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("stamp: unknown workload %q", name)
}
