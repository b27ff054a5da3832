package gate

// PolicyCacheAffinity is the one routing-policy name Config.Policy
// accepts besides "". Placement no longer depends on it: every run is
// placed by home.
const PolicyCacheAffinity = "cache-affinity"

// home is the gate's one placement rule, used by submissions,
// per-run reads and the reconciler's re-homing: the candidate with the
// highest rendezvous score for runID (highest-random-weight hashing;
// Thaler & Ravishankar, IEEE/ACM ToN 1998), ties broken by registry
// index. Each replica wins an equal share of run IDs in expectation,
// repeat submissions of the same content address land on the replica
// that caches the result, and removing a candidate moves only the runs
// it won. It returns nil only for an empty candidate set.
func home(runID string, candidates []*Replica) *Replica {
	var best *Replica
	var bestScore uint64
	for _, r := range candidates {
		s := score(runID, r.Name)
		if best == nil || s > bestScore || (s == bestScore && r.idx < best.idx) {
			best, bestScore = r, s
		}
	}
	return best
}

// score hashes (runID, replica name): FNV-1a over runID, a zero
// separator byte and the name, then the splitmix64 finalizer, so names
// that differ in one byte still get independent scores. It is stable
// across processes and Go versions, unlike maphash.
func score(runID, name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(runID); i++ {
		h = (h ^ uint64(runID[i])) * prime
	}
	h *= prime // the separator: h ^ 0 == h
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
