package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestParseDIMACS(t *testing.T) {
	in := `c a comment
p cnf 3 3
1 -2 0
2 3 0
-1 0
`
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.ModelValue(lit(1)) {
		t.Fatal("x1 must be false")
	}
	if s.ModelValue(lit(2)) && !s.ModelValue(lit(3)) {
		t.Fatal("model inconsistent")
	}
}

func TestParseDIMACSMultilineClause(t *testing.T) {
	in := "1 2\n3 0\n"
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
}

func TestParseDIMACSBadToken(t *testing.T) {
	_, err := ParseDIMACS(strings.NewReader("1 x 0\n"))
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestParseDIMACSTrailingClauseWithoutZero(t *testing.T) {
	s, err := ParseDIMACS(strings.NewReader("1 2"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.ModelValue(lit(1)) && !s.ModelValue(lit(2)) {
		t.Fatal("clause not enforced")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 30; iter++ {
		nVars := 3 + rng.Intn(6)
		clauses := randomClauses(rng, nVars, 2+rng.Intn(10), 3)
		s1 := New()
		addVars(s1, nVars)
		for _, c := range clauses {
			s1.AddClause(c...)
		}
		var buf bytes.Buffer
		if err := s1.WriteDIMACS(&buf); err != nil {
			t.Fatal(err)
		}
		s2, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if st1, st2 := s1.Solve(), s2.Solve(); st1 != st2 {
			t.Fatalf("iter %d: round-trip changed status %v → %v", iter, st1, st2)
		}
	}
}
