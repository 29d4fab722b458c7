package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/value"
)

// Column ordinals of dataset.RecipesSchema.
const (
	colID = iota
	colName
	colCuisine
	colMealtype
	colGluten
	colCalories
	colProtein
	colFat
	colCarbs
	colPrice
	colRating
)

// numTemplates query templates are cycled in equal shares, so the
// median lands inside the third latency cluster and p90 inside the
// slowest one instead of on a cliff between two clusters.
const numTemplates = 5

// Sizes of one write step of write-interleaved.
const (
	insertBatch = 200
	deleteBatch = 100
)

// workload fixes one set of inputs. Sizes are calibrated so that the
// measured phase lasts about --seconds on the reference box (2 cores,
// GOMAXPROCS=2); the op count, not the clock, ends a run, so the count
// metrics repeat exactly for a seed.
type workload struct {
	name      string
	tables    int     // how many tables of that size; each op queries one
	rows      int     // table size
	warmup    int     // untimed warm-up ops per set-up, drawn from the same seeded stream
	opsPerSec float64 // measured ops per second of --seconds
	traceOps  int     // ops the traced run replays
	filter    int     // which WHERE the ops carry
	writes    bool    // every op is INSERT + DELETE + query
	exact     bool    // the planner must pick the exact solver (else sketch-refine)
}

// WHERE shapes.
const (
	filterNone  = iota
	filterExact // gluten = 'free' AND cuisine = ? AND mealtype = ?
	filterCold  // calories >= ? AND price <= ?, never repeated
)

var workloads = []workload{
	{name: "interactive-exact", tables: 8, rows: 14000, warmup: 25, opsPerSec: 45, traceOps: 40, filter: filterExact, exact: true},
	{name: "sketch-warm", tables: 1, rows: 50000, warmup: 10, opsPerSec: 6.5, traceOps: 40},
	{name: "sketch-cold", tables: 1, rows: 50000, warmup: 5, opsPerSec: 7, traceOps: 40, filter: filterCold},
	{name: "write-interleaved", tables: 1, rows: 50000, warmup: 10, opsPerSec: 5, traceOps: 40, writes: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ops resolves the measured op count for a run of the given length: a
// whole number of template cycles, never fewer than the hundred samples
// p90 needs.
func (w workload) ops(seconds int) int {
	n := int(math.Round(w.opsPerSec*float64(seconds)/numTemplates)) * numTemplates
	return max(n, 100)
}

// template picks the query template of the i-th op: the five templates
// in turn, except on write-interleaved, where four steps in five use T0
// and every fifth T3 — two shapes on purpose, because the fingerprint
// memo keeps one snapshot per (table, WHERE) and the second shape makes
// it lose the first one's patch lineage.
func (w workload) template(i int) int {
	if !w.writes {
		return i % numTemplates
	}
	if i%numTemplates == numTemplates-1 {
		return 3
	}
	return 0
}

// where is an op's base predicate; the zero value is no WHERE.
type where struct {
	cuisine, mealtype string  // filterExact
	minCal            int     // filterCold
	maxPrice          float64 // filterCold
}

func (w where) sql() string {
	switch {
	case w.cuisine != "":
		return fmt.Sprintf(" WHERE R.gluten = 'free' AND R.cuisine = '%s' AND R.mealtype = '%s'", w.cuisine, w.mealtype)
	case w.maxPrice > 0:
		return fmt.Sprintf(" WHERE R.calories >= %d AND R.price <= %.2f", w.minCal, w.maxPrice)
	}
	return ""
}

func (w where) match(r schema.Row) bool {
	switch {
	case w.cuisine != "":
		return r[colGluten].StrVal() == "free" && r[colCuisine].StrVal() == w.cuisine && r[colMealtype].StrVal() == w.mealtype
	case w.maxPrice > 0:
		return num(r, colCalories) >= float64(w.minCal) && num(r, colPrice) <= w.maxPrice
	}
	return true
}

func num(r schema.Row, col int) float64 {
	f, _ := r[col].AsFloat()
	return f
}

// halfCent is added to T3's price budget. Prices are whole cents, so no
// package's SUM(price) comes within the simplex's feasibility tolerance
// of the budget; without it the exact solver now and then returns a
// package one float rounding over budget, which the engine then rejects
// as "strategy returned an invalid package" (see README, findings).
const halfCent = 0.005

// op is one step of the closed loop: on write-interleaved an INSERT and
// a DELETE, then always one package query.
type op struct {
	table int // which of the workload's tables
	tmpl  int
	k     int // the template's drawn constant: a (T0, T4), c (T1), m (T2) or p (T3)
	where where
	// write-interleaved only.
	insert   string
	inserted []schema.Row
	delete   string
}

// query renders the op's PaQL text. Every template is feasible by
// construction on the generated data, so an empty answer is a failure.
func (o op) query() string {
	head := "SELECT PACKAGE(R) AS P FROM " + tableName(o.table) + " R" + o.where.sql() + " SUCH THAT "
	switch o.tmpl {
	case 0:
		return fmt.Sprintf("%sCOUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d MAXIMIZE SUM(P.protein)", head, o.k, o.k+500)
	case 1:
		return fmt.Sprintf("%sCOUNT(*) = 5 AND AVG(P.calories) <= %d MAXIMIZE SUM(P.protein)", head, o.k)
	case 2:
		return fmt.Sprintf("%sCOUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= %d AND SUM(P.calories) BETWEEN 2500 AND 3500 MAXIMIZE SUM(P.protein)", head, o.k)
	case 3:
		return fmt.Sprintf("%sCOUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= %d.005 AND SUM(P.fat) <= 120 MAXIMIZE SUM(P.rating)", head, o.k)
	default:
		return fmt.Sprintf("%sCOUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d AND SUM(P.fat) BETWEEN 20 AND 200 MAXIMIZE SUM(P.protein)", head, o.k, o.k+500)
	}
}

// drawConstant draws the template's constant from the seeded stream.
func drawConstant(tmpl int, rng *rand.Rand) int {
	switch tmpl {
	case 1:
		return 400 + 5*rng.Intn(61) // c: average calories cap, 400..700
	case 2:
		return 700 + 10*rng.Intn(31) // m: per-recipe calories cap, 700..1000
	case 3:
		return 40 + rng.Intn(51) // p: price budget, 40..90 (below 40 the sketch MILPs' node counts explode)
	default:
		return 900 + 10*rng.Intn(151) // a: calories band start, 900..2400
	}
}

func tableName(i int) string { return fmt.Sprintf("recipes%d", i) }

// genRows generates the workload's tables for a seed.
func genRows(w workload, seed int64) [][]schema.Row {
	tables := make([][]schema.Row, w.tables)
	for i := range tables {
		tables[i] = dataset.Recipes(dataset.RecipesConfig{N: w.rows, Seed: seed + int64(i)<<20})
	}
	return tables
}

// renderCSV renders recipe rows with the typed header minidb's loader
// reads. (dataset.WriteCSV concatenates strings and is quadratic; it
// does not finish at these sizes.) No generated cell needs quoting.
func renderCSV(rows []schema.Row) string {
	var b strings.Builder
	b.WriteString("id:int,name:text,cuisine:text,mealtype:text,gluten:text,calories:float,protein:float,fat:float,carbs:float,price:float,rating:float\n")
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// genOps draws n ops (warm-up first, then measured) from one stream
// seeded apart from the table's.
func genOps(w workload, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0b5))
	cuisines := []string{"italian", "mexican", "indian", "american", "thai", "french", "japanese"}
	mealtypes := []string{"breakfast", "lunch", "dinner", "snack"}
	seen := map[where]bool{}
	ops := make([]op, n)
	for i := range ops {
		o := op{table: rng.Intn(w.tables), tmpl: w.template(i)}
		switch w.filter {
		case filterExact:
			o.where = where{cuisine: cuisines[rng.Intn(len(cuisines))], mealtype: mealtypes[rng.Intn(len(mealtypes))]}
		case filterCold:
			for {
				o.where = where{minCal: 200 + rng.Intn(200), maxPrice: float64(1100+rng.Intn(401)) / 100}
				if !seen[o.where] {
					seen[o.where] = true
					break
				}
			}
		}
		o.k = drawConstant(o.tmpl, rng)
		if w.writes {
			o.inserted = dataset.Recipes(dataset.RecipesConfig{N: insertBatch, Seed: rng.Int63()})
			firstID := w.rows + i*insertBatch + 1
			var b strings.Builder
			b.WriteString("INSERT INTO " + tableName(o.table) + " VALUES ")
			for j, r := range o.inserted {
				r[colID] = value.Int(int64(firstID + j))
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteByte('(')
				for c, v := range r {
					if c > 0 {
						b.WriteString(", ")
					}
					b.WriteString(v.SQLString())
				}
				b.WriteByte(')')
			}
			o.insert = b.String()
			// The earliest inserted rows still alive.
			lo := w.rows + i*deleteBatch + 1
			o.delete = fmt.Sprintf("DELETE FROM %s WHERE id >= %d AND id < %d", tableName(o.table), lo, lo+deleteBatch)
		}
		ops[i] = o
	}
	return ops
}
