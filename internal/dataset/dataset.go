// Package dataset generates the synthetic workloads PackageBuilder's
// examples and experiments run on. The paper demonstrates on "a rich
// recipe data set scrapped from online recipe and nutrition websites";
// that data is not redistributable, so these generators produce
// deterministic (seeded) tables with realistic marginal distributions:
// log-normal calorie counts, protein/fat correlated with calories,
// categorical attributes with skew. The §1 vacation-planner and
// investment-portfolio scenarios get matching generators.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/value"
)

// RecipesConfig sizes the recipe generator.
type RecipesConfig struct {
	N    int
	Seed int64
}

var (
	recipeAdjectives = []string{
		"Roasted", "Spicy", "Creamy", "Grilled", "Baked", "Fresh",
		"Smoky", "Zesty", "Hearty", "Light", "Rustic", "Golden",
	}
	recipeDishes = []string{
		"Chicken Bowl", "Lentil Soup", "Pasta", "Quinoa Salad", "Tofu Stir-fry",
		"Beef Stew", "Veggie Wrap", "Salmon Plate", "Omelette", "Rice Pilaf",
		"Burrito", "Curry", "Chili", "Flatbread", "Noodle Soup", "Grain Bowl",
	}
	cuisines  = []string{"italian", "mexican", "indian", "american", "thai", "french", "japanese"}
	mealTypes = []string{"breakfast", "lunch", "dinner", "snack"}
)

// RecipesSchema is the schema of the generated recipe relation.
func RecipesSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "name", Type: schema.TString},
		schema.Column{Name: "cuisine", Type: schema.TString},
		schema.Column{Name: "mealtype", Type: schema.TString},
		schema.Column{Name: "gluten", Type: schema.TString}, // 'free' | 'full'
		schema.Column{Name: "calories", Type: schema.TFloat},
		schema.Column{Name: "protein", Type: schema.TFloat},
		schema.Column{Name: "fat", Type: schema.TFloat},
		schema.Column{Name: "carbs", Type: schema.TFloat},
		schema.Column{Name: "price", Type: schema.TFloat},
		schema.Column{Name: "rating", Type: schema.TFloat},
	)
}

// Recipes generates n recipe rows, deterministic per seed.
func Recipes(cfg RecipesConfig) []schema.Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]schema.Row, cfg.N)
	for i := 0; i < cfg.N; i++ {
		// Calories: log-normal around ~420 kcal, clamped to menu reality.
		cal := math.Exp(rng.NormFloat64()*0.45 + 6.05)
		cal = clamp(cal, 80, 1400)
		cal = math.Round(cal)
		// Protein correlates with calories (≈8-20% of kcal from protein).
		protein := math.Round(clamp(cal*(0.02+0.03*rng.Float64())+rng.NormFloat64()*3, 1, 120))
		fat := math.Round(clamp(cal*(0.015+0.03*rng.Float64())+rng.NormFloat64()*4, 0, 110))
		carbs := math.Round(clamp(cal*0.10-fat*0.4+rng.NormFloat64()*10+20, 0, 200))
		price := math.Round((2+rng.Float64()*18)*100) / 100
		rating := math.Round((1+rng.Float64()*4)*10) / 10
		gluten := "free"
		if rng.Float64() < 0.35 {
			gluten = "full"
		}
		name := fmt.Sprintf("%s %s #%d",
			recipeAdjectives[rng.Intn(len(recipeAdjectives))],
			recipeDishes[rng.Intn(len(recipeDishes))], i+1)
		rows[i] = schema.Row{
			value.Int(int64(i + 1)),
			value.Str(name),
			value.Str(cuisines[rng.Intn(len(cuisines))]),
			value.Str(mealTypes[rng.Intn(len(mealTypes))]),
			value.Str(gluten),
			value.Float(cal),
			value.Float(protein),
			value.Float(fat),
			value.Float(carbs),
			value.Float(price),
			value.Float(rating),
		}
	}
	return rows
}

// LoadRecipes creates and fills a recipe table.
func LoadRecipes(db *minidb.DB, table string, cfg RecipesConfig) error {
	if _, err := db.CreateTable(table, RecipesSchema()); err != nil {
		return err
	}
	return db.InsertRows(table, Recipes(cfg))
}

// VacationConfig sizes the travel-item generator (§1 vacation planner).
type VacationConfig struct {
	Flights int
	Hotels  int
	Cars    int
	Seed    int64
}

var destinations = []string{"Cancun", "Maui", "Phuket", "Bali", "Fiji", "Aruba", "Ibiza"}

// VacationSchema is the schema of the generated travel-item relation.
// kind ∈ {flight, hotel, car}; dist is the hotel's distance to the
// beach in km (NULL for other kinds); price is total for the stay.
func VacationSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "kind", Type: schema.TString},
		schema.Column{Name: "name", Type: schema.TString},
		schema.Column{Name: "destination", Type: schema.TString},
		schema.Column{Name: "price", Type: schema.TFloat},
		schema.Column{Name: "dist", Type: schema.TFloat},
		schema.Column{Name: "comfort", Type: schema.TFloat}, // 1..5
	)
}

// Vacation generates flights, hotels and rental cars.
func Vacation(cfg VacationConfig) []schema.Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []schema.Row
	id := 0
	add := func(kind, name, dest string, price, dist, comfort float64) {
		id++
		dv := value.Null()
		if dist >= 0 {
			dv = value.Float(math.Round(dist*100) / 100)
		}
		rows = append(rows, schema.Row{
			value.Int(int64(id)), value.Str(kind), value.Str(name), value.Str(dest),
			value.Float(math.Round(price)), dv, value.Float(math.Round(comfort*10) / 10),
		})
	}
	for i := 0; i < cfg.Flights; i++ {
		dest := destinations[rng.Intn(len(destinations))]
		price := 250 + rng.Float64()*900
		comfort := 1 + rng.Float64()*4
		add("flight", fmt.Sprintf("Flight %c%d to %s", 'A'+rng.Intn(6), 100+rng.Intn(900), dest),
			dest, price, -1, comfort)
	}
	for i := 0; i < cfg.Hotels; i++ {
		dest := destinations[rng.Intn(len(destinations))]
		dist := math.Abs(rng.NormFloat64()) * 2.2
		// Closer hotels are pricier.
		price := (400 + rng.Float64()*900) * (1.6 - clamp(dist, 0, 5)/5)
		comfort := 2 + rng.Float64()*3
		add("hotel", fmt.Sprintf("Hotel %s %d", dest, i+1), dest, price, dist, comfort)
	}
	for i := 0; i < cfg.Cars; i++ {
		dest := destinations[rng.Intn(len(destinations))]
		price := 120 + rng.Float64()*380
		add("car", fmt.Sprintf("Rental car %d (%s)", i+1, dest), dest, price, -1, 2+rng.Float64()*2)
	}
	return rows
}

// LoadVacation creates and fills a travel-item table.
func LoadVacation(db *minidb.DB, table string, cfg VacationConfig) error {
	if _, err := db.CreateTable(table, VacationSchema()); err != nil {
		return err
	}
	return db.InsertRows(table, Vacation(cfg))
}

// StocksConfig sizes the stock generator (§1 investment portfolio).
type StocksConfig struct {
	N    int
	Seed int64
}

var sectors = []string{"technology", "health", "energy", "finance", "consumer", "industrial"}

// StocksSchema is the schema of the generated stock relation. price is
// per lot; expret the expected annual return (fraction); risk a 0..1
// volatility score; horizon ∈ {short, long}.
func StocksSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "ticker", Type: schema.TString},
		schema.Column{Name: "sector", Type: schema.TString},
		schema.Column{Name: "price", Type: schema.TFloat},
		schema.Column{Name: "expret", Type: schema.TFloat},
		schema.Column{Name: "risk", Type: schema.TFloat},
		schema.Column{Name: "horizon", Type: schema.TString},
	)
}

// Stocks generates n stock lots.
func Stocks(cfg StocksConfig) []schema.Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]schema.Row, cfg.N)
	for i := 0; i < cfg.N; i++ {
		sector := sectors[rng.Intn(len(sectors))]
		// Lot price: log-normal around $3k.
		price := math.Round(math.Exp(rng.NormFloat64()*0.6 + 8.0))
		// Higher risk ↦ higher expected return, tech skews risky.
		risk := clamp(rng.Float64()*0.8+boolTo(sector == "technology", 0.15, 0), 0.02, 1)
		expret := math.Round((0.01+risk*0.18+rng.NormFloat64()*0.02)*1000) / 1000
		horizon := "long"
		if rng.Float64() < 0.45 {
			horizon = "short"
		}
		ticker := fmt.Sprintf("%c%c%c%c",
			'A'+rng.Intn(26), 'A'+rng.Intn(26), 'A'+rng.Intn(26), 'A'+rng.Intn(26))
		rows[i] = schema.Row{
			value.Int(int64(i + 1)), value.Str(ticker), value.Str(sector),
			value.Float(price), value.Float(expret),
			value.Float(math.Round(risk*1000) / 1000), value.Str(horizon),
		}
	}
	return rows
}

// LoadStocks creates and fills a stock table.
func LoadStocks(db *minidb.DB, table string, cfg StocksConfig) error {
	if _, err := db.CreateTable(table, StocksSchema()); err != nil {
		return err
	}
	return db.InsertRows(table, Stocks(cfg))
}

// WriteCSV renders rows as CSV with a typed header, matching the
// minidb CSV loader's "name:type" convention.
func WriteCSV(sc schema.Schema, rows []schema.Row) string {
	var out strings.Builder
	for i, c := range sc.Cols {
		if i > 0 {
			out.WriteByte(',')
		}
		out.WriteString(c.Name + ":" + typeName(c.Type))
	}
	out.WriteByte('\n')
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				out.WriteByte(',')
			}
			if v.IsNull() {
				continue
			}
			s := v.String()
			if v.Kind() == value.KindString {
				s = csvEscape(s)
			}
			out.WriteString(s)
		}
		out.WriteByte('\n')
	}
	return out.String()
}

func csvEscape(s string) string {
	needs := false
	for _, r := range s {
		if r == ',' || r == '"' || r == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := `"`
	for _, r := range s {
		if r == '"' {
			out += `""`
		} else {
			out += string(r)
		}
	}
	return out + `"`
}

func typeName(t schema.Type) string {
	switch t {
	case schema.TInt:
		return "int"
	case schema.TFloat:
		return "float"
	case schema.TBool:
		return "bool"
	}
	return "text"
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolTo(b bool, t, f float64) float64 {
	if b {
		return t
	}
	return f
}
