package sim

import (
	"regexp"
	"testing"
)

// The regular expressions ScanNumber replaced, kept as its oracle.
var (
	moneyRe = regexp.MustCompile(`^\$\s?\d{1,3}(,\d{3})*(\.\d+)?$|^\$\s?\d+(\.\d+)?$`)
	intRe   = regexp.MustCompile(`^\d{1,3}(,\d{3})+$|^\d+$`)
	realRe  = regexp.MustCompile(`^\d+\.\d+$`)
)

// numberKindOracle classifies s with the regexes, in the monetary →
// real → integer order the matcher's type inference tests them.
func numberKindOracle(s string) NumberKind {
	switch {
	case moneyRe.MatchString(s):
		return Money
	case realRe.MatchString(s):
		return Real
	case intRe.MatchString(s):
		return Integer
	}
	return NotNumber
}

var numberCases = []struct {
	in   string
	want NumberKind
}{
	{"42", Integer}, {"0", Integer}, {"15,200", Integer}, {"1,234,567", Integer},
	{"3.5", Real}, {"0.25", Real},
	{"$15,200", Money}, {"$ 9.99", Money}, {"$1,234.5", Money}, {"$1234.5", Money},
	{"$\t5", Money}, {"$5", Money},
	{"", NotNumber}, {"$", NotNumber}, {"$ ", NotNumber}, {"$  5", NotNumber},
	{"$\v5", NotNumber}, {"1,234.5", NotNumber}, {"1,23", NotNumber},
	{"1234,567", NotNumber}, {"1,2345", NotNumber}, {"12,345,", NotNumber},
	{".5", NotNumber}, {"5.", NotNumber}, {"1.2.3", NotNumber}, {"-5", NotNumber},
	{" 5", NotNumber}, {"5 ", NotNumber}, {"٣", NotNumber}, {"Honda", NotNumber},
	{"$1,234,567.89", Money}, {"1e5", NotNumber}, {"$1,23.4", NotNumber},
}

func TestScanNumber(t *testing.T) {
	for _, c := range numberCases {
		if got := ScanNumber(c.in); got != c.want {
			t.Errorf("ScanNumber(%q) = %d, want %d", c.in, got, c.want)
		}
		if got := numberKindOracle(c.in); got != c.want {
			t.Errorf("oracle(%q) = %d, want %d (case table is wrong)", c.in, got, c.want)
		}
	}
}

// FuzzNumericKind checks the scanner against the regexes it replaced.
func FuzzNumericKind(f *testing.F) {
	for _, c := range numberCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := ScanNumber(s), numberKindOracle(s); got != want {
			t.Fatalf("ScanNumber(%q) = %d, regexes say %d", s, got, want)
		}
	})
}
