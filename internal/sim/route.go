package sim

import (
	"fmt"
	"sort"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
)

// A route is a static multicast chain for one guest column's pebble stream:
// whenever the sender computes pebble (col, t), the value travels in
// direction dir and is delivered at every destination, in travel order.
// Routes are computed once per simulation.
//
// Destinations of a column are the holders of its guest-neighbor columns
// that do not hold the column itself (holders compute their own copy — that
// is the redundant computation doing its job). Each destination is served by
// its nearest holder, so a value crosses each link at most twice (once per
// direction) per guest step.
//
// Compact representation. Route records are fixed-size; the variable-length
// destination chains live in one shared arena as interleaved (delta, dense)
// pairs:
//
//	delta — hop distance to this destination in travel direction (from the
//	        sender for the first pair, from the previous destination after),
//	        always >= 1, so a chain is strictly monotone by construction;
//	dense — the column's index in that destination's dense knowledge store
//	        (dense.go), resolved at build time so deliveries never look a
//	        column up.
//
// Deltas are sender-relative, which is what makes sharing safe under
// mirroring: two replicated senders whose fan-outs have the same shape —
// the common case for block/mirrored assignments, where every replica of a
// column feeds the same relative pattern of neighbor holders — encode to
// identical (delta, dense) sequences even though their absolute destination
// positions differ. buildRoutes interns chains on their encoded bytes, so
// each distinct shape is stored once no matter how many routes share it.
type routeRec struct {
	col    int32
	sender int32
	off    int32 // start of this route's (delta, dense) pairs in chainArena
	n      int32 // number of destinations
	dir    int8  // +1 rightward, -1 leftward
}

// routeRecBytes is the in-memory size of one routeRec (4 int32 + int8,
// padded); bytes() uses it so telemetry can report the table footprint.
const routeRecBytes = 20

type routeTable struct {
	routes []routeRec
	// chainArena holds every route's destination chain as interleaved
	// (delta, dense) pairs; routes with identical encodings share one span.
	chainArena []int32
	// Flattened sender index: the routes fed by position p's owned-column
	// slot i (parallel to assign.Owned[p]) are
	//
	//	routeIDs[slotOff[senderBase[p]+i] : slotOff[senderBase[p]+i+1]]
	//
	// replacing the old triple-nested [][][]int32 with three flat arrays.
	routeIDs   []int32
	slotOff    []int32
	senderBase []int32
	// crossR[i] / crossL[i] count the routes whose traffic crosses link
	// (i, i+1) rightward / leftward — i.e. messages per guest step in each
	// direction. Chunks use them to pre-size link queues and boundary
	// outboxes so the steady-state hot path never grows a slice.
	crossR, crossL []int32
}

// newRouteShell builds an empty table with the sender index sized for the
// assignment, so routesFor works before (or without) any routes existing.
func newRouteShell(a *assign.Assignment) *routeTable {
	rt := &routeTable{senderBase: make([]int32, a.HostN+1)}
	total := int32(0)
	for p := 0; p < a.HostN; p++ {
		rt.senderBase[p] = total
		total += int32(len(a.Owned[p]))
	}
	rt.senderBase[a.HostN] = total
	rt.slotOff = make([]int32, total+1)
	return rt
}

// routesFor lists the route ids position pos feeds for its owned-column
// slot i (parallel to assign.Owned[pos]).
func (rt *routeTable) routesFor(pos, slot int) []int32 {
	s := rt.senderBase[pos] + int32(slot)
	return rt.routeIDs[rt.slotOff[s]:rt.slotOff[s+1]]
}

// bytes reports the table's resident footprint: fixed records plus the
// shared arena and the flattened sender index.
func (rt *routeTable) bytes() int64 {
	words := len(rt.chainArena) + len(rt.routeIDs) + len(rt.slotOff) +
		len(rt.senderBase) + len(rt.crossR) + len(rt.crossL)
	return int64(len(rt.routes))*routeRecBytes + int64(words)*4
}

// buildRoutes derives the multicast routing table from the guest graph and
// the assignment. Hosts in avoid (ascending; crash-stop hosts from a fault
// plan) are excluded from routing entirely: never chosen as senders (static
// failover onto the surviving replicas; the caller guarantees every column
// keeps at least one live holder) and never targeted as destinations (a
// crash-stop host never computes after the crash, so feeding it is wasted
// traffic — and deliveries trailing the last live compute would make the
// engines' message counts diverge). Their positions still relay through
// traffic: the NIC outlives the CPU. An empty avoid list reproduces the
// fault-free table exactly.
//
// extra, when non-nil (adaptive replication), lists per host the standby
// columns provisioned there. Standby hosts join the destination fan-out of
// every column their standby columns depend on — from step 1, dormant or
// not — so an activation needs no route rebuild: the host has been
// receiving the dependency stream all along. Standby replicas are never
// senders (activated standbys serve only their own host).
func buildRoutes(g guest.Graph, a *assign.Assignment, avoid []int, extra [][]int) *routeTable {
	rt := newRouteShell(a)
	// extraHolders[c] lists the hosts with a standby replica of column c.
	var extraHolders [][]int
	if extra != nil {
		extraHolders = make([][]int, a.Columns)
		for p, cols := range extra {
			for _, col := range cols {
				extraHolders[col] = append(extraHolders[col], p)
			}
		}
	}
	dead := make(map[int]bool, len(avoid))
	for _, h := range avoid {
		dead[h] = true
	}
	// liveHolders filters a column's holder list down to live hosts (aliases
	// the original slice when nothing is filtered).
	liveHolders := func(col int) []int {
		hs := a.Holders[col]
		if len(dead) == 0 {
			return hs
		}
		needs := false
		for _, h := range hs {
			if dead[h] {
				needs = true
				break
			}
		}
		if !needs {
			return hs
		}
		live := make([]int, 0, len(hs))
		for _, h := range hs {
			if !dead[h] {
				live = append(live, h)
			}
		}
		return live
	}

	// senderFor returns the live holder nearest to dest (ties toward the
	// left) using binary search over the sorted holder list.
	senderFor := func(hs []int, dest int) int {
		i := sort.SearchInts(hs, dest)
		switch {
		case i == 0:
			return hs[0]
		case i == len(hs):
			return hs[len(hs)-1]
		default:
			if dest-hs[i-1] <= hs[i]-dest {
				return hs[i-1]
			}
			return hs[i]
		}
	}

	// uniFor lazily resolves a position's dense-store universe. The
	// computation must match newChunk's (both call colUniverse over the same
	// owned lists, base plus standby), which keeps the route table valid for
	// any chunking of the line.
	universes := make([][]int32, a.HostN)
	uniFor := func(pos int32) []int32 {
		if universes[pos] == nil {
			owned := a.Owned[pos]
			if extra != nil && len(extra[pos]) > 0 {
				owned = unionCols(owned, extra[pos])
			}
			universes[pos] = colUniverse(g.Neighbors, owned)
		}
		return universes[pos]
	}

	// intern stores an encoded chain in the arena, returning the offset of
	// an existing identical chain when one was already interned.
	interned := make(map[string]int32)
	var keyBuf []byte
	intern := func(enc []int32) int32 {
		keyBuf = keyBuf[:0]
		for _, v := range enc {
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if off, ok := interned[string(keyBuf)]; ok {
			return off
		}
		off := int32(len(rt.chainArena))
		rt.chainArena = append(rt.chainArena, enc...)
		interned[string(keyBuf)] = off
		return off
	}

	slotRoutes := make([][]int32, len(rt.slotOff)-1)
	var lasts []int32 // last destination per route, for countCrossings
	var enc []int32   // encoding scratch

	type chainKey struct {
		sender int
		dir    int8
	}
	for col := 0; col < a.Columns; col++ {
		// Destination set: holders (base or standby) of neighbor columns
		// minus base holders of col.
		destSet := make(map[int]bool)
		for _, nb := range g.Neighbors(col) {
			for _, p := range a.Holders[nb] {
				if !dead[p] {
					destSet[p] = true
				}
			}
			if extraHolders != nil {
				for _, p := range extraHolders[nb] {
					if !dead[p] {
						destSet[p] = true
					}
				}
			}
		}
		for _, p := range a.Holders[col] {
			delete(destSet, p)
		}
		if len(destSet) == 0 {
			continue
		}
		hs := liveHolders(col)
		chains := make(map[chainKey][]int32)
		for dest := range destSet {
			s := senderFor(hs, dest)
			dir := int8(1)
			if dest < s {
				dir = -1
			}
			k := chainKey{sender: s, dir: dir}
			chains[k] = append(chains[k], int32(dest))
		}
		// Deterministic route order: sort keys.
		keys := make([]chainKey, 0, len(chains))
		for k := range chains {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].sender != keys[j].sender {
				return keys[i].sender < keys[j].sender
			}
			return keys[i].dir < keys[j].dir
		})
		for _, k := range keys {
			dests := chains[k]
			if k.dir > 0 {
				sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
			} else {
				sort.Slice(dests, func(i, j int) bool { return dests[i] > dests[j] })
			}
			// Encode the chain: sender-relative deltas plus dense indexes.
			enc = enc[:0]
			prev := int32(k.sender)
			for _, d := range dests {
				delta := d - prev
				if k.dir < 0 {
					delta = prev - d
				}
				dense := denseIndex(uniFor(d), int32(col))
				if dense < 0 {
					panic(fmt.Sprintf("sim: route for col %d delivers to pos %d, which holds no neighbor of it", col, d))
				}
				enc = append(enc, delta, dense)
				prev = d
			}
			id := int32(len(rt.routes))
			rt.routes = append(rt.routes, routeRec{
				col:    int32(col),
				sender: int32(k.sender),
				off:    intern(enc),
				n:      int32(len(dests)),
				dir:    k.dir,
			})
			lasts = append(lasts, dests[len(dests)-1])
			// Attach to the sender's owned-column slot.
			idx := sort.SearchInts(a.Owned[k.sender], col)
			slot := rt.senderBase[k.sender] + int32(idx)
			slotRoutes[slot] = append(slotRoutes[slot], id)
		}
	}
	// Flatten the per-slot route lists into routeIDs/slotOff.
	rt.routeIDs = make([]int32, 0, len(rt.routes))
	for s, ids := range slotRoutes {
		rt.slotOff[s] = int32(len(rt.routeIDs))
		rt.routeIDs = append(rt.routeIDs, ids...)
	}
	rt.slotOff[len(slotRoutes)] = int32(len(rt.routeIDs))
	rt.countCrossings(a.HostN, lasts)
	return rt
}

// countCrossings fills crossR/crossL via difference arrays: a rightward
// route from s whose last destination is L crosses links s..L-1; a leftward
// one crosses links L..s-1 (link i connects positions i and i+1). lasts is
// the per-route last destination, parallel to routes (tracked at build time
// so this pass never decodes a chain).
func (rt *routeTable) countCrossings(hostN int, lasts []int32) {
	if hostN < 2 {
		return
	}
	diffR := make([]int32, hostN)
	diffL := make([]int32, hostN)
	for i := range rt.routes {
		r := &rt.routes[i]
		last := lasts[i]
		if r.dir > 0 {
			diffR[r.sender]++
			diffR[last]--
		} else {
			diffL[last]++
			diffL[r.sender]--
		}
	}
	rt.crossR = make([]int32, hostN-1)
	rt.crossL = make([]int32, hostN-1)
	var sumR, sumL int32
	for i := 0; i < hostN-1; i++ {
		sumR += diffR[i]
		sumL += diffL[i]
		rt.crossR[i] = sumR
		rt.crossL[i] = sumL
	}
}
