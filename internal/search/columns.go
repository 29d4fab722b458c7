package search

import (
	"context"
	"math"
	"slices"

	"repro/internal/lifecycle"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

// Columns is rows lowered from boxed values to flat columns: the form
// the partition-tree builder's inner loops run over, one sequential pass
// per column instead of one 40-byte value.V cell at a time. Position j
// of every column is the j-th row lowered.
//
// A table's candidates are read from the table's image: the engine
// lowers each table once, keeps the lowering beside the table, advances
// it along the table's writes (Advance) and hands it to the instances
// prepared from the table (Instance.Image), so a build or patch reads
// its candidates' cells by tuple id and lowers nothing. Candidates too
// small a share of their table to make or advance the image are lowered
// by Lower, as a table-less instance's are. Every build at
// one table version shares that lowering, so it is never written once
// made. Lower serves what has no table — the candidates of a table-less
// instance, a level's representative rows — and that lowering is
// scratch for the build that asked for it.
type Columns struct {
	Cols  []Column // one per column of the first row
	n     int      // rows lowered
	dicts *dictionaries
}

// dictionaries are a lowering's interning tables, one per column. They
// code the rows appended to its table later (Advance), and belong to one
// lowering at a time, the newest: an older one cannot be advanced again.
type dictionaries struct {
	owner *Columns
	cols  []dictionary
}

// Column is one lowered column: a float lens over its numeric cells, a
// NULL bitmap, and, once the column holds a non-numeric, non-NULL cell,
// a dictionary code per cell, so modes are counted over small integers.
// Each slice is exactly as long as the column.
type Column struct {
	// Num reads each cell as a float64: a numeric cell's value, 0 for
	// NULL and for non-numeric cells. nil while no cell is numeric.
	Num []float64
	// Null has bit i set when cell i is NULL; nil when no cell is.
	Null []uint64
	// Codes and Dict are nil for a column of numeric and NULL cells
	// only. Otherwise Codes[i] indexes Dict, which holds each distinct
	// datum once — distinct by kind and payload, so NULL and 'NULL', or
	// Int(1) and Str("1"), never share a code. A table's image keeps the
	// datums of deleted rows in Dict: a code is never reclaimed.
	Codes []uint32
	Dict  []value.V
	// DictNumeric reports that Dict holds a numeric datum: only then
	// can a group drawn from a coded column still be all-numeric.
	DictNumeric bool
}

// IsNull reports whether cell i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.Null != nil && c.Null[i>>6]>>(uint(i)&63)&1 != 0
}

// Len is the number of rows lowered.
func (cs *Columns) Len() int { return cs.n }

// Lowered returns the candidates as columns and the position of each
// in them: the table's image (Image) and IDs — nil when the candidates
// are the whole table, read as they are — or, without an image at the
// candidates' version, a lowering of Rows and nil. cols is nil when ctx
// ended first.
func (inst *Instance) Lowered(ctx context.Context) (cols *Columns, at []int) {
	if inst.Image != nil {
		img, err := inst.Image(ctx)
		if err != nil {
			return nil, nil
		}
		if img != nil {
			if img.Len() == len(inst.IDs) {
				return img, nil // ascending distinct ids as many as the rows: every row, in order
			}
			return img, inst.IDs
		}
	}
	return Lower(inst.Rows, nil, lifecycle.Poll(ctx)), nil
}

// PollRows is the most rows a loop over candidates handles between two
// polls of its cooperative-cancellation hook: Lower's, the tree-build
// loops that run over its columns, and — where the constant is declared,
// below this package — translate's pass fold.
const PollRows = translate.PollRows

// Lower builds the columnar view of rows[idx[0]], rows[idx[1]], … (of
// every row, in order, when idx is nil); position j of each column is
// row idx[j]. stop, when non-nil, is polled every PollRows rows; a
// true return abandons the lowering and Lower returns nil.
//
// Rows shorter than the first read NULL in the missing cells.
func Lower(rows []schema.Row, idx []int, stop func() bool) *Columns {
	n := len(rows)
	if idx != nil {
		n = len(idx)
	}
	cs := &Columns{n: n}
	if n == 0 {
		return cs
	}
	at := func(j int) schema.Row {
		if idx != nil {
			return rows[idx[j]]
		}
		return rows[j]
	}
	cs.Cols = make([]Column, len(at(0)))
	cs.dicts = &dictionaries{owner: cs, cols: make([]dictionary, len(cs.Cols))}
	if !cs.lower(at, 0, stop) {
		return nil
	}
	return cs
}

// Advance returns the lowering of the table cs was lowered from, some
// writes later: rows is the table now and deleted the positions of cs's
// rows gone since, ascending, so rows[:cs.Len()-len(deleted)] are the
// survivors in their order and every row after them was appended. The
// survivors' cells are copied, not re-read; only the appended rows are
// lowered, into the dictionaries cs kept, so a datum keeps its code.
//
// cs itself is not written — builds may be reading it — but its
// dictionaries pass to the result, and it cannot be advanced a second
// time. Advance returns nil when it cannot advance: cs is empty or was
// advanced before, or a dictionary would hold more than twice as many
// datums as the table has rows, since deleted rows' codes are never
// reclaimed. The table is then lowered afresh.
func (cs *Columns) Advance(rows []schema.Row, deleted []int) *Columns {
	if cs.n == 0 || cs.dicts.owner != cs {
		return nil
	}
	for c := range cs.Cols {
		if len(cs.Cols[c].Dict) > 2*len(rows) {
			return nil
		}
	}
	next := &Columns{Cols: make([]Column, len(cs.Cols)), n: len(rows), dicts: cs.dicts}
	cs.dicts.owner = next
	for c := range cs.Cols {
		src, dst := &cs.Cols[c], &next.Cols[c]
		dst.Dict, dst.DictNumeric = src.Dict, src.DictNumeric
		if src.Num != nil {
			dst.Num = Compacted(src.Num, deleted, next.n)
		}
		if src.Codes != nil {
			dst.Codes = Compacted(src.Codes, deleted, next.n)
		}
		if src.Null != nil {
			dst.Null = make([]uint64, (next.n+63)/64)
			j, di := 0, 0
			for i := 0; i < cs.n; i++ {
				if di < len(deleted) && deleted[di] == i {
					di++
					continue
				}
				if src.IsNull(i) {
					dst.Null[j>>6] |= 1 << (uint(j) & 63)
				}
				j++
			}
		}
	}
	next.lower(func(j int) schema.Row { return rows[j] }, cs.n-len(deleted), nil)
	return next
}

// Trim sizes every dictionary to its datums and drops the interning
// tables, which only coding more rows reads: the form a lowering kept
// beside its table takes until a write appends rows, when Advance builds
// them again from the datums. It must run before cs is shared.
func (cs *Columns) Trim() {
	for c := range cs.Cols {
		col := &cs.Cols[c]
		if len(col.Dict) < cap(col.Dict) {
			col.Dict = append(make([]value.V, 0, len(col.Dict)), col.Dict...)
		}
		if cs.dicts != nil {
			cs.dicts.cols[c] = dictionary{}
		}
	}
}

// Compacted returns src without the elements at deleted (ascending
// positions) in a slice of length n, whose tail past the survivors is
// zero: a table column compacted past a delete, with room for the rows
// appended since.
func Compacted[T any](src []T, deleted []int, n int) []T {
	out := make([]T, n)
	j, from := 0, 0
	for _, d := range deleted {
		j += copy(out[j:], src[from:d])
		from = d + 1
	}
	copy(out[j:], src[from:])
	return out
}

// lower fills positions from … Len()-1 of every column with the cells
// of at(from), at(from+1), …, polling stop every PollRows rows; false
// means it fired. A column gets its float lens at its first numeric
// cell, its bitmap at its first NULL and its codes at its first
// non-numeric datum — which codes the cells above it too, read again
// through at.
func (cs *Columns) lower(at func(int) schema.Row, from int, stop func() bool) bool {
	n := cs.n
	var null value.V
	for j := from; j < n; j++ {
		if j%PollRows == 0 && stop != nil && stop() {
			return false
		}
		row := at(j)
		for c := range cs.Cols {
			col := &cs.Cols[c]
			v := &null // a short row reads NULL
			if c < len(row) {
				v = &row[c]
			}
			switch v.Kind() {
			case value.KindInt, value.KindFloat:
				if col.Num == nil {
					col.Num = make([]float64, n)
				}
				col.Num[j], _ = v.AsFloat()
			case value.KindNull:
				if col.Null == nil {
					col.Null = make([]uint64, (n+63)/64)
				}
				col.Null[j>>6] |= 1 << (uint(j) & 63)
			default:
				if col.Codes == nil {
					// First non-numeric cell: the column becomes coded, and
					// the numeric and NULL cells above it get codes too.
					col.Codes = make([]uint32, n)
					for k := 0; k < j; k++ {
						u := &null
						if r := at(k); c < len(r) {
							u = &r[c]
						}
						col.Codes[k] = cs.dicts.cols[c].code(col, u)
					}
				}
			}
			if col.Codes != nil {
				col.Codes[j] = cs.dicts.cols[c].code(col, v)
			}
		}
	}
	return true
}

// dictionary interns one column's datums by identity (kind + payload,
// the distinction EncodeKey draws): an open-addressing table of codes
// probed by a 64-bit hash. A unique column (a name, a key) interns
// every row, so a miss must stay cheap: each slot carries the upper
// hash bits, which settles nearly every probe without a look at the
// datum, and growing the table re-reads the kept hashes, not the data.
// The hash is fixed, not seeded per process: the same candidates probe
// the same slots in every run, so a build's work repeats exactly. A
// table's image keeps its dictionaries, so rows appended later are coded
// into them (Columns.Advance).
type dictionary struct {
	slots  []uint64 // hash&^codeMask | code+1; 0 = empty; a power of two long
	hashes []uint64 // per code, parallel to Column.Dict
}

const codeMask = 1<<32 - 1

// code returns v's dictionary code, adding v to col.Dict when new.
func (d *dictionary) code(col *Column, v *value.V) uint32 {
	if d.slots == nil {
		d.index(col.Dict)
	}
	h := hashDatum(v)
	mask := uint64(len(d.slots) - 1)
	p := h & mask
	for ; d.slots[p] != 0; p = (p + 1) & mask {
		if (d.slots[p]^h)&^codeMask != 0 {
			continue
		}
		code := uint32(d.slots[p]&codeMask) - 1
		if col.Dict[code].Identical(*v) {
			return code
		}
	}
	code := uint32(len(col.Dict))
	if len(col.Dict) == cap(col.Dict) {
		col.Dict = slices.Grow(col.Dict, max(16, len(col.Dict))) // double: append's 1.25× recopies a long dictionary too often
	}
	col.Dict = append(col.Dict, *v)
	col.DictNumeric = col.DictNumeric || v.IsNumeric()
	d.hashes = append(d.hashes, h)
	d.slots[p] = h&^codeMask | uint64(code+1)
	if 2*len(col.Dict) > len(d.slots) {
		d.rehash(2 * len(d.slots))
	}
	return code
}

// index builds the table over the datums dict already holds: none for a
// new column, every one for a dictionary Trim dropped the table of.
func (d *dictionary) index(dict []value.V) {
	d.hashes = make([]uint64, len(dict))
	for i := range dict {
		d.hashes[i] = hashDatum(&dict[i])
	}
	size := 16
	for size < 2*(len(dict)+1) {
		size *= 2
	}
	d.rehash(size)
}

// rehash makes the slot table size slots long (a power of two) and puts
// every kept hash back.
func (d *dictionary) rehash(size int) {
	d.slots = make([]uint64, size)
	mask := uint64(size - 1)
	for c, h := range d.hashes {
		p := h & mask
		for d.slots[p] != 0 {
			p = (p + 1) & mask
		}
		d.slots[p] = h&^codeMask | uint64(c+1)
	}
}

// hashDatum is a datum's dictionary hash, by kind and payload.
func hashDatum(v *value.V) uint64 {
	if v.Kind() == value.KindString {
		return hashString(v.StrVal())
	}
	return mix(scalarBits(v) ^ uint64(v.Kind())<<56)
}

// mix scrambles one 64-bit word: a multiply carries every input bit
// upward and the fold brings the well-mixed upper half back down to the
// bits a table mask keeps.
func mix(w uint64) uint64 {
	w *= 0x9e3779b97f4a7c15
	return w ^ w>>32
}

// hashString hashes a string eight bytes at a step, the length first so
// that a string and its zero-padded extensions differ.
func hashString(s string) uint64 {
	h := mix(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	var tail uint64
	for i := len(s) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(s[i])
	}
	return mix(h ^ tail)
}

// scalarBits is the payload of a non-string datum as EncodeKey writes
// it (0 for NULL and for strings).
func scalarBits(v *value.V) uint64 {
	switch v.Kind() {
	case value.KindBool:
		if v.BoolVal() {
			return 1
		}
	case value.KindInt:
		return uint64(v.IntVal())
	case value.KindFloat:
		return math.Float64bits(v.FloatVal())
	}
	return 0
}
