package exec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Select filters its child by a boolean (0/1 int64) predicate: each batch
// becomes a selection vector of surviving positions, and survivors are
// copied with one Gather per column. A batch whose rows all survive is
// passed through as is.
type Select struct {
	Child Op
	Pred  Expr
	Ctx   *Ctx
	// PerTupleCPU, if nonzero, is charged per input tuple.
	PerTupleCPU sim.Duration

	out    *Batch
	pred   Vec
	sel    []int32
	closed bool
}

// Op is an alias to keep plan literals compact.
type Op = Operator

// Schema implements Operator.
func (s *Select) Schema() []storage.ColumnType { return s.Child.Schema() }

// Open implements Operator.
func (s *Select) Open() {
	s.Child.Open()
	s.out = NewBatch(s.Child.Schema())
}

// Next implements Operator.
func (s *Select) Next() *Batch {
	for {
		in := s.Child.Next()
		if in == nil {
			return nil
		}
		if s.Ctx != nil && s.PerTupleCPU > 0 {
			s.Ctx.work(s.PerTupleCPU * sim.Duration(in.N))
		}
		s.sel = selectNonZero(operandVec(s.Pred, in, &s.pred).I64[:in.N], s.sel)
		switch len(s.sel) {
		case 0:
			continue
		case in.N:
			return in
		}
		for c, v := range s.out.Vecs {
			v.Gather(in.Vecs[c], s.sel)
		}
		s.out.N = len(s.sel)
		return s.out
	}
}

// selectNonZero returns the positions of the nonzero values of pred,
// reusing sel's backing array.
func selectNonZero(pred []int64, sel []int32) []int32 {
	sel = resize(sel, len(pred))
	n := 0
	for i, v := range pred {
		sel[n] = int32(i)
		n += int(b2i(v != 0))
	}
	return sel[:n]
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (s *Select) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Child.Close()
}

// Project computes expressions over its child.
type Project struct {
	Child Op
	Exprs []Expr

	out    *Batch
	closed bool
}

// Schema implements Operator.
func (p *Project) Schema() []storage.ColumnType {
	out := make([]storage.ColumnType, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Type()
	}
	return out
}

// Open implements Operator.
func (p *Project) Open() {
	p.Child.Open()
	p.out = NewBatch(p.Schema())
}

// Next implements Operator.
func (p *Project) Next() *Batch {
	in := p.Child.Next()
	if in == nil {
		return nil
	}
	for i, e := range p.Exprs {
		e.Eval(in, p.out.Vecs[i])
	}
	p.out.N = in.N
	return p.out
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (p *Project) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.Child.Close()
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate over an input column (ignored for AggCount).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// HashAggr is a blocking hash aggregation with optional group-by columns.
// Each input batch first maps every row to a dense int32 group id, then
// runs one typed loop per aggregate over flat state slices indexed by
// gid*len(Aggs)+si, so each group folds its rows in input order. Groups
// are emitted sorted by their rendered key ("%d|", "%g|" or "s|" per
// group column), ties broken by first appearance.
type HashAggr struct {
	Child  Op
	Groups []int
	Aggs   []AggSpec
	Ctx    *Ctx
	// PerTupleCPU, if nonzero, is charged per input tuple.
	PerTupleCPU sim.Duration

	// Group-id assignment: ints serves a lone Int64 group column (with a
	// last-key shortcut for sorted input), keys a typed binary encoding
	// of any other group list.
	ints     map[int64]int32
	lastKey  int64
	lastGid  int32
	keys     map[string]int32
	rowKeys  [][]byte
	gids     []int32
	newRows  []int32
	groupBy  []*Vec    // group column values per group, in gid order
	counts   []int64   // rows per group
	i64      []int64   // integer sum/min/max state
	f64      []float64 // float sum/avg/min/max state
	order    []int32   // gids in emission order
	consumed bool
	out      *Batch
	closed   bool
}

// Schema implements Operator: group columns followed by aggregates
// (AggCount yields Int64; others Float64 except Min/Max/Sum over Int64).
func (a *HashAggr) Schema() []storage.ColumnType {
	child := a.Child.Schema()
	var out []storage.ColumnType
	for _, g := range a.Groups {
		out = append(out, child[g])
	}
	for _, spec := range a.Aggs {
		switch spec.Kind {
		case AggCount:
			out = append(out, storage.Int64)
		case AggAvg:
			out = append(out, storage.Float64)
		default:
			out = append(out, child[spec.Col])
		}
	}
	return out
}

// Open implements Operator.
func (a *HashAggr) Open() {
	a.Child.Open()
	child := a.Child.Schema()
	for _, spec := range a.Aggs {
		if spec.Kind != AggCount && child[spec.Col] == storage.String {
			panic(fmt.Sprintf("exec: aggregate %d over a string column", spec.Kind))
		}
	}
	a.groupBy = make([]*Vec, len(a.Groups))
	for gi, g := range a.Groups {
		a.groupBy[gi] = NewVec(child[g])
	}
	if len(a.Groups) == 1 && child[a.Groups[0]] == storage.Int64 {
		a.ints = make(map[int64]int32)
		a.lastGid = -1
	} else {
		a.keys = make(map[string]int32)
	}
	a.out = NewBatch(a.Schema())
}

// Next implements Operator: consumes the whole child on first call, then
// emits result batches in deterministic (sorted group key) order.
func (a *HashAggr) Next() *Batch {
	if !a.consumed {
		for in := a.Child.Next(); in != nil; in = a.Child.Next() {
			if a.Ctx != nil && a.PerTupleCPU > 0 {
				a.Ctx.work(a.PerTupleCPU * sim.Duration(in.N))
			}
			a.consume(in)
		}
		a.sortGroups()
		a.consumed = true
	}
	if len(a.order) == 0 {
		return nil
	}
	sel := a.order[:min(len(a.order), VectorSize)]
	a.order = a.order[len(sel):]
	for gi, v := range a.groupBy {
		a.out.Vecs[gi].Gather(v, sel)
	}
	na := len(a.Aggs)
	for si, spec := range a.Aggs {
		v := a.out.Vecs[len(a.Groups)+si]
		switch {
		case spec.Kind == AggCount:
			v.I64 = resize(v.I64, len(sel))
			for j, g := range sel {
				v.I64[j] = a.counts[g]
			}
		case spec.Kind == AggAvg:
			v.F64 = resize(v.F64, len(sel))
			for j, g := range sel {
				v.F64[j] = a.f64[int(g)*na+si] / float64(a.counts[g])
			}
		case v.T == storage.Int64:
			v.I64 = resize(v.I64, len(sel))
			for j, g := range sel {
				v.I64[j] = a.i64[int(g)*na+si]
			}
		default:
			v.F64 = resize(v.F64, len(sel))
			for j, g := range sel {
				v.F64[j] = a.f64[int(g)*na+si]
			}
		}
	}
	a.out.N = len(sel)
	return a.out
}

// consume folds one input batch into the group table.
func (a *HashAggr) consume(in *Batch) {
	n := in.N
	a.gids = resize(a.gids, n)
	a.newRows = a.newRows[:0]
	first := int32(len(a.counts))
	switch {
	case len(a.Groups) == 0:
		if first == 0 && n > 0 {
			a.newRows = append(a.newRows, 0)
		}
		clear(a.gids)
	case a.ints != nil:
		a.intGroupIDs(in.Vecs[a.Groups[0]].I64[:n], first)
	default:
		a.keyGroupIDs(in, first)
	}
	a.addGroups(in)
	na := len(a.Aggs)
	for si, spec := range a.Aggs {
		if spec.Kind == AggCount {
			continue
		}
		v := in.Vecs[spec.Col]
		switch {
		case v.T == storage.Int64 && spec.Kind == AggAvg:
			xs := v.I64[:n]
			for i, g := range a.gids {
				a.f64[int(g)*na+si] += float64(xs[i])
			}
		case v.T == storage.Int64:
			foldAgg(spec.Kind, a.i64[si:], na, a.gids, v.I64[:n])
		default:
			foldAgg(spec.Kind, a.f64[si:], na, a.gids, v.F64[:n])
		}
	}
	for _, g := range a.gids {
		a.counts[g]++
	}
}

// intGroupIDs assigns group ids for a lone Int64 group column.
func (a *HashAggr) intGroupIDs(keys []int64, next int32) {
	for i, k := range keys {
		if a.lastGid < 0 || k != a.lastKey {
			g, ok := a.ints[k]
			if !ok {
				g = next
				next++
				a.ints[k] = g
				a.newRows = append(a.newRows, int32(i))
			}
			a.lastKey, a.lastGid = k, g
		}
		a.gids[i] = a.lastGid
	}
}

// keyGroupIDs assigns group ids by a binary row key: 8 bytes per Int64 or
// Float64 column (NaNs canonicalized, so they group as they render) and a
// length-prefixed string per String column, built a column at a time.
func (a *HashAggr) keyGroupIDs(in *Batch, next int32) {
	n := in.N
	if len(a.rowKeys) < n {
		// Carve the row keys from one arena; a longer key reallocates
		// only its own row.
		const rowKeyCap = 32
		arena := make([]byte, n*rowKeyCap)
		a.rowKeys = make([][]byte, n)
		for i := range a.rowKeys {
			a.rowKeys[i] = arena[i*rowKeyCap : i*rowKeyCap : (i+1)*rowKeyCap]
		}
	}
	rk := a.rowKeys[:n]
	for i := range rk {
		rk[i] = rk[i][:0]
	}
	for _, g := range a.Groups {
		v := in.Vecs[g]
		switch v.T {
		case storage.Int64:
			for i, x := range v.I64[:n] {
				rk[i] = binary.LittleEndian.AppendUint64(rk[i], uint64(x))
			}
		case storage.Float64:
			for i, x := range v.F64[:n] {
				if x != x {
					x = math.NaN()
				}
				rk[i] = binary.LittleEndian.AppendUint64(rk[i], math.Float64bits(x))
			}
		case storage.String:
			for i, x := range v.Str[:n] {
				rk[i] = binary.AppendUvarint(rk[i], uint64(len(x)))
				rk[i] = append(rk[i], x...)
			}
		}
	}
	for i, k := range rk {
		g, ok := a.keys[string(k)]
		if !ok {
			g = next
			next++
			a.keys[string(k)] = g
			a.newRows = append(a.newRows, int32(i))
		}
		a.gids[i] = g
	}
}

// addGroups grows the group table by the groups first seen at newRows:
// their group values, zero counts and sums, and Min/Max state seeded
// with the first row's value.
func (a *HashAggr) addGroups(in *Batch) {
	if len(a.newRows) == 0 {
		return
	}
	for gi, g := range a.Groups {
		v, src := a.groupBy[gi], in.Vecs[g]
		switch v.T {
		case storage.Int64:
			v.I64 = appendSel(v.I64, src.I64, a.newRows)
		case storage.Float64:
			v.F64 = appendSel(v.F64, src.F64, a.newRows)
		case storage.String:
			v.Str = appendSel(v.Str, src.Str, a.newRows)
		}
	}
	first := len(a.counts)
	a.counts = grow(a.counts, len(a.newRows))
	na := len(a.Aggs)
	a.i64 = grow(a.i64, len(a.newRows)*na)
	a.f64 = grow(a.f64, len(a.newRows)*na)
	for si, spec := range a.Aggs {
		if spec.Kind != AggMin && spec.Kind != AggMax {
			continue
		}
		v := in.Vecs[spec.Col]
		for j, row := range a.newRows {
			at := (first+j)*na + si
			if v.T == storage.Int64 {
				a.i64[at] = v.I64[row]
			} else {
				a.f64[at] = v.F64[row]
			}
		}
	}
}

// foldAgg folds xs into the state cells st[gid*stride] of each row's
// group, in row order.
func foldAgg[T int64 | float64](kind AggKind, st []T, stride int, gids []int32, xs []T) {
	switch kind {
	case AggSum, AggAvg:
		for i, g := range gids {
			st[int(g)*stride] += xs[i]
		}
	case AggMin:
		for i, g := range gids {
			if p := &st[int(g)*stride]; xs[i] < *p {
				*p = xs[i]
			}
		}
	case AggMax:
		for i, g := range gids {
			if p := &st[int(g)*stride]; xs[i] > *p {
				*p = xs[i]
			}
		}
	}
}

// sortGroups orders the groups by rendered key, rendering each group's
// key once into a shared buffer.
func (a *HashAggr) sortGroups() {
	ng := len(a.counts)
	var buf []byte
	ends := make([]int, ng)
	for g := 0; g < ng; g++ {
		for _, v := range a.groupBy {
			switch v.T {
			case storage.Int64:
				buf = strconv.AppendInt(buf, v.I64[g], 10)
			case storage.Float64:
				buf = strconv.AppendFloat(buf, v.F64[g], 'g', -1, 64)
			case storage.String:
				buf = append(buf, v.Str[g]...)
			}
			buf = append(buf, '|')
		}
		ends[g] = len(buf)
	}
	key := func(g int32) []byte {
		if g == 0 {
			return buf[:ends[0]]
		}
		return buf[ends[g-1]:ends[g]]
	}
	// Compare the first 8 key bytes as one integer, and whole keys only
	// on a tie.
	prefix := make([]uint64, ng)
	a.order = make([]int32, ng)
	for g := range a.order {
		a.order[g] = int32(g)
		var p [8]byte
		copy(p[:], key(int32(g)))
		prefix[g] = binary.BigEndian.Uint64(p[:])
	}
	slices.SortFunc(a.order, func(x, y int32) int {
		if c := cmp.Compare(prefix[x], prefix[y]); c != 0 {
			return c
		}
		if c := bytes.Compare(key(x), key(y)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (a *HashAggr) Close() {
	if a.closed {
		return
	}
	a.closed = true
	a.Child.Close()
}

// HashJoin is an equi-join: it builds a hash table from the Build child
// on BuildKey and probes with the Probe child on ProbeKey (int64 keys,
// the common case for TPC-H foreign keys). Output is probe columns
// followed by build columns.
type HashJoin struct {
	Build    Op
	Probe    Op
	BuildKey int
	ProbeKey int
	Ctx      *Ctx
	// PerTupleCPU, if nonzero, is charged per probe tuple.
	PerTupleCPU sim.Duration

	// head maps a key to 1 + its first build row, next a build row to 1 +
	// the following row with the same key (0 ends the chain), so chains
	// run in build-insertion order.
	head     map[int64]int32
	next     []int32
	built    *Batch
	probeIdx []int32
	buildIdx []int32
	out      *Batch
	closed   bool
}

// Schema implements Operator.
func (j *HashJoin) Schema() []storage.ColumnType {
	return append(append([]storage.ColumnType{}, j.Probe.Schema()...), j.Build.Schema()...)
}

// Open implements Operator: materializes and hashes the build side.
func (j *HashJoin) Open() {
	j.Probe.Open()
	j.built = Collect(j.Build)
	keys := j.built.Vecs[j.BuildKey]
	typeCheck(storage.Int64, keys.T, "join build key")
	j.head = make(map[int64]int32, j.built.N)
	j.next = make([]int32, j.built.N)
	for i := j.built.N - 1; i >= 0; i-- {
		k := keys.I64[i]
		j.next[i] = j.head[k]
		j.head[k] = int32(i + 1)
	}
	j.out = NewBatch(j.Schema())
}

// Next implements Operator.
func (j *HashJoin) Next() *Batch {
	for {
		in := j.Probe.Next()
		if in == nil {
			return nil
		}
		if j.Ctx != nil && j.PerTupleCPU > 0 {
			j.Ctx.work(j.PerTupleCPU * sim.Duration(in.N))
		}
		keys := in.Vecs[j.ProbeKey]
		typeCheck(storage.Int64, keys.T, "join probe key")
		pi, bi := j.probeIdx[:0], j.buildIdx[:0]
		for i, k := range keys.I64[:in.N] {
			for b := j.head[k]; b != 0; b = j.next[b-1] {
				pi = append(pi, int32(i))
				bi = append(bi, b-1)
			}
		}
		j.probeIdx, j.buildIdx = pi, bi
		if len(pi) == 0 {
			continue
		}
		np := len(in.Vecs)
		for c, v := range in.Vecs {
			j.out.Vecs[c].Gather(v, pi)
		}
		for c, v := range j.built.Vecs {
			j.out.Vecs[np+c].Gather(v, bi)
		}
		j.out.N = len(pi)
		return j.out
	}
}

// Close implements Operator (the build side was already closed by
// Collect in Open). Idempotent: a second Close does not reach the probe
// child.
func (j *HashJoin) Close() {
	if j.closed {
		return
	}
	j.closed = true
	j.Probe.Close()
}

// SortSpec orders by column Col, descending when Desc.
type SortSpec struct {
	Col  int
	Desc bool
}

// Sort is a blocking full sort (used on small final results, as TPC-H
// ORDER BY clauses are).
type Sort struct {
	Child Op
	By    []SortSpec
	// Limit truncates the output when positive (ORDER BY ... LIMIT n).
	Limit int

	all    *Batch
	perm   []int32
	pos    int
	opened bool
	sorted bool
	closed bool
	out    *Batch
}

// Schema implements Operator.
func (s *Sort) Schema() []storage.ColumnType { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open() {
	s.Child.Open()
	s.opened = true
	s.out = NewBatch(s.Child.Schema())
}

// Next implements Operator.
func (s *Sort) Next() *Batch {
	if !s.sorted {
		s.all = Collect(&nopClose{s.Child})
		s.perm = make([]int32, s.all.N)
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		sort.SliceStable(s.perm, func(a, b int) bool {
			ra, rb := s.perm[a], s.perm[b]
			for _, spec := range s.By {
				v := s.all.Vecs[spec.Col]
				var cm int
				switch v.T {
				case storage.Int64:
					cm = cmpOrdered(v.I64[ra], v.I64[rb])
				case storage.Float64:
					cm = cmpOrdered(v.F64[ra], v.F64[rb])
				case storage.String:
					cm = strings.Compare(v.Str[ra], v.Str[rb])
				}
				if cm != 0 {
					if spec.Desc {
						return cm > 0
					}
					return cm < 0
				}
			}
			return false
		})
		if s.Limit > 0 && len(s.perm) > s.Limit {
			s.perm = s.perm[:s.Limit]
		}
		s.sorted = true
	}
	if s.pos >= len(s.perm) {
		return nil
	}
	sel := s.perm[s.pos:min(len(s.perm), s.pos+VectorSize)]
	for c, v := range s.out.Vecs {
		v.Gather(s.all.Vecs[c], sel)
	}
	s.out.N = len(sel)
	s.pos += len(sel)
	return s.out
}

// Close implements Operator. Idempotent: a second Close does not reach
// the child.
func (s *Sort) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Child.Close()
}

// cmpOrdered is a three-way comparison under which a NaN equals
// everything.
func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// nopClose adapts an already-open child for Collect (which opens/closes).
type nopClose struct{ Op }

func (n *nopClose) Open()  {}
func (n *nopClose) Close() {}
