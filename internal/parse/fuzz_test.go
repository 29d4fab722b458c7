package parse

import "testing"

// FuzzParseExprString: template slot text reaches ParseExprString
// untrusted, so it answers an expression or an error, never a panic, and
// an expression it answers renders.
func FuzzParseExprString(f *testing.F) {
	for _, src := range []string{
		"1 + 2 * 3", "(1 + 2) * 3", "-(5 + 2)", "2 * -3", "7 % 4", "ABS(-4)", "POW(2, 3)", "COALESCE(NULL, 7)",
		"5 NOT BETWEEN 1 AND 10", "'c' NOT IN ('a', 'b')", "'hello' NOT LIKE 'x%'", "1 IS NOT NULL",
		"TRUE AND (FALSE OR FALSE)", "NOT 1 = 2", "r.cal <= 400 AND gluten = 'free'",
		"x BETWEEN 1 AND 10 OR y IN (1, 2, 3)", "SELECT a.b, 'it''s' <= 3.5e2 -- comment\n<> !=",
		"1 2.5 3e4 5.25e-2 6E+1 7.", "'unterminated", "a # b",
		"", "1 +", "(1 + 2", "1 BETWEEN 2", "x IN (", "x IN ()", "x IS 3", "ABS(1,2,3) AND", "5 NOT 3", "1 2",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseExprString(src)
		if (e == nil) == (err == nil) {
			t.Fatalf("ParseExprString(%q) = %v, %v", src, e, err)
		}
		if e != nil {
			_ = e.String()
		}
	})
}
