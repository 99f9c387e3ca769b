package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// u64map is a purpose-built open-addressing hash map from uint64 keys to
// uint64 values. It was the per-workstation knowledge table until the dense
// generation-indexed store (dense.go) replaced it on the hot path; it
// survives, in this test file, purely as the differential test oracle — FuzzDenseKnowledge
// drives random (col, step) operation sequences against both stores and
// asserts identical results, which only works because this map makes no
// assumptions about key structure that the dense store could share. Key 0
// is reserved as the empty sentinel; knowledge keys are kkey(col, step)
// with step >= 1, so 0 never occurs.
type u64map struct {
	keys []uint64
	vals []uint64
	mask uint64
	n    int // live entries
}

const u64mapMinCap = 16

func newU64map() *u64map {
	m := &u64map{}
	m.init(u64mapMinCap)
	return m
}

func (m *u64map) init(capacity int) {
	m.keys = make([]uint64, capacity)
	m.vals = make([]uint64, capacity)
	m.mask = uint64(capacity - 1)
	m.n = 0
}

// hash scrambles the key; kkey packs col<<32|step, whose low bits alone
// would collide badly across columns.
func u64hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// get returns the value for key and whether it is present.
func (m *u64map) get(key uint64) (uint64, bool) {
	i := u64hash(key) & m.mask
	for {
		k := m.keys[i]
		if k == key {
			return m.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & m.mask
	}
}

// has reports whether key is present.
func (m *u64map) has(key uint64) bool {
	_, ok := m.get(key)
	return ok
}

// put inserts or overwrites key.
func (m *u64map) put(key, val uint64) {
	if key == 0 {
		panic("u64map: zero key")
	}
	// Grow at 50% load: the engine's hottest operation is the *missing*
	// probe (dependency not yet known), whose expected chain length blows
	// up past half load in linear-probe tables; trading memory for short
	// chains is a clear win here.
	if 2*(m.n+1) > len(m.keys) {
		m.rehash(2 * len(m.keys))
	}
	i := u64hash(key) & m.mask
	for {
		k := m.keys[i]
		if k == key {
			m.vals[i] = val
			return
		}
		if k == 0 {
			m.keys[i] = key
			m.vals[i] = val
			m.n++
			return
		}
		i = (i + 1) & m.mask
	}
}

// del removes key if present, using backward-shift deletion (no
// tombstones, so heavy churn cannot degrade probes).
func (m *u64map) del(key uint64) {
	i := u64hash(key) & m.mask
	for {
		k := m.keys[i]
		if k == 0 {
			return
		}
		if k == key {
			break
		}
		i = (i + 1) & m.mask
	}
	// backward shift: close the hole by moving displaced entries back
	m.n--
	j := i
	for {
		j = (j + 1) & m.mask
		k := m.keys[j]
		if k == 0 {
			break
		}
		home := u64hash(k) & m.mask
		// can k move into the hole at i? yes iff its home position does
		// not lie strictly between i (exclusive) and j (inclusive) in
		// probe order.
		if ((j - home) & m.mask) >= ((j - i) & m.mask) {
			m.keys[i] = k
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	m.keys[i] = 0
	m.vals[i] = 0
	// shrink when very sparse to bound churned memory
	if len(m.keys) > u64mapMinCap && 8*m.n < len(m.keys) {
		m.rehash(len(m.keys) / 2)
	}
}

func (m *u64map) rehash(capacity int) {
	if capacity < u64mapMinCap {
		capacity = u64mapMinCap
	}
	oldK, oldV := m.keys, m.vals
	m.init(capacity)
	for i, k := range oldK {
		if k != 0 {
			m.put(k, oldV[i])
		}
	}
}

// size reports the number of live entries.
func (m *u64map) size() int { return m.n }

// kkey packs a (column, step) pair into a u64map key.
func kkey(col, step int32) uint64 { return uint64(uint32(col))<<32 | uint64(uint32(step)) }

func TestU64MapBasics(t *testing.T) {
	m := newU64map()
	if _, ok := m.get(5); ok {
		t.Fatal("empty map has key")
	}
	m.put(5, 50)
	m.put(6, 60)
	if v, ok := m.get(5); !ok || v != 50 {
		t.Fatal("get 5")
	}
	m.put(5, 51)
	if v, _ := m.get(5); v != 51 {
		t.Fatal("overwrite")
	}
	if m.size() != 2 {
		t.Fatalf("size %d", m.size())
	}
	m.del(5)
	if m.has(5) || !m.has(6) {
		t.Fatal("delete")
	}
	m.del(5) // absent delete is a no-op
	if m.size() != 1 {
		t.Fatalf("size %d", m.size())
	}
}

func TestU64MapZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero key accepted")
		}
	}()
	newU64map().put(0, 1)
}

func TestU64MapGrowShrink(t *testing.T) {
	m := newU64map()
	const n = 10000
	for i := uint64(1); i <= n; i++ {
		m.put(i, i*3)
	}
	if m.size() != n {
		t.Fatalf("size %d", m.size())
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := m.get(i); !ok || v != i*3 {
			t.Fatalf("lost key %d", i)
		}
	}
	for i := uint64(1); i <= n; i++ {
		m.del(i)
	}
	if m.size() != 0 {
		t.Fatalf("size %d after deleting all", m.size())
	}
	if len(m.keys) > 64 {
		t.Fatalf("did not shrink: cap %d", len(m.keys))
	}
}

// Property: u64map behaves exactly like the builtin map under random
// interleaved operations, including the backward-shift deletion paths.
func TestU64MapMatchesBuiltin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newU64map()
		ref := map[uint64]uint64{}
		// small key space to force collisions and delete-shift chains
		keys := make([]uint64, 60)
		for i := range keys {
			keys[i] = uint64(r.Intn(200) + 1)
		}
		for op := 0; op < 3000; op++ {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(3) {
			case 0:
				v := r.Uint64()
				m.put(k, v)
				ref[k] = v
			case 1:
				m.del(k)
				delete(ref, k)
			default:
				v, ok := m.get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if m.size() != len(ref) {
			return false
		}
		for k, rv := range ref {
			if v, ok := m.get(k); !ok || v != rv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkU64MapChurn(b *testing.B) {
	m := newU64map()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i%4096 + 1)
		m.put(k, uint64(i))
		m.get(k)
		if i%3 == 0 {
			m.del(k)
		}
	}
}
