package search

import (
	"math"
	"slices"

	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

// Columns is a candidate set lowered from boxed rows to flat columns:
// the form the partition-tree builder's inner loops run over, one
// sequential pass per column instead of one 40-byte value.V cell at a
// time. A lowering is scratch for the build that asked for it — nothing
// retains it, so a query that finds its tree in the cache never pays
// for one.
type Columns struct {
	Cols []Column // one per column of the first row
}

// Column is one lowered column. Every column carries the numeric lens
// the splitter and the representatives read cells through; a column
// holding at least one non-numeric, non-NULL cell is dictionary-coded as
// well, so modes are counted over small integers.
type Column struct {
	// Num reads each cell as a float64: a numeric cell's value, 0 for
	// NULL and for non-numeric cells.
	Num []float64
	// Null has bit i set when cell i is NULL; nil when no cell is.
	Null []uint64
	// Codes and Dict are nil for a column of numeric and NULL cells
	// only. Otherwise Codes[i] indexes Dict, which holds each distinct
	// datum once — distinct by kind and payload, so NULL and 'NULL', or
	// Int(1) and Str("1"), never share a code.
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
	cs := &Columns{}
	if n == 0 {
		return cs
	}
	at := func(j int) schema.Row {
		if idx != nil {
			return rows[idx[j]]
		}
		return rows[j]
	}
	width := len(at(0))
	cs.Cols = make([]Column, width)
	nums := make([]float64, n*width)
	for c := range cs.Cols {
		cs.Cols[c].Num = nums[c*n : (c+1)*n : (c+1)*n]
	}
	dicts := make([]dictionary, width)
	var null value.V
	for j := 0; j < n; j++ {
		if j%PollRows == 0 && stop != nil && stop() {
			return nil
		}
		row := at(j)
		for c := range cs.Cols {
			col := &cs.Cols[c]
			v := &null // a short row reads NULL
			if c < len(row) {
				v = &row[c]
			}
			switch v.Kind() {
			case value.KindInt:
				col.Num[j] = float64(v.IntVal())
			case value.KindFloat:
				col.Num[j] = v.FloatVal()
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
						col.Codes[k] = dicts[c].code(col, u)
					}
				}
			}
			if col.Codes != nil {
				col.Codes[j] = dicts[c].code(col, v)
			}
		}
	}
	return cs
}

// dictionary interns one column's datums by identity (kind + payload,
// the distinction EncodeKey draws): an open-addressing table of codes
// probed by a 64-bit hash. A unique column (a name, a key) interns
// every row, so a miss must stay cheap: each slot carries the upper
// hash bits, which settles nearly every probe without a look at the
// datum, and growing the table re-reads the kept hashes, not the data.
// The hash is fixed, not seeded per process: the same candidates probe
// the same slots in every run, so a build's work repeats exactly.
type dictionary struct {
	slots  []uint64 // hash&^codeMask | code+1; 0 = empty; a power of two long
	hashes []uint64 // per code, parallel to Column.Dict
}

const codeMask = 1<<32 - 1

// code returns v's dictionary code, adding v to col.Dict when new.
func (d *dictionary) code(col *Column, v *value.V) uint32 {
	if d.slots == nil {
		d.slots = make([]uint64, 16)
	}
	var h uint64
	if v.Kind() == value.KindString {
		h = hashString(v.StrVal())
	} else {
		h = mix(scalarBits(v) ^ uint64(v.Kind())<<56)
	}
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
		d.slots = make([]uint64, 2*len(d.slots))
		mask = uint64(len(d.slots) - 1)
		for c, h := range d.hashes {
			p := h & mask
			for d.slots[p] != 0 {
				p = (p + 1) & mask
			}
			d.slots[p] = h&^codeMask | uint64(c+1)
		}
	}
	return code
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
