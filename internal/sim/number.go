package sim

// NumberKind is the kind of number a value spells, as the instance-domain
// typing of outlier removal (webiq) and of IceQ's domain similarity
// (matcher) distinguish them.
type NumberKind uint8

// Number kinds.
const (
	// NotNumber: the value is not one of the forms below.
	NotNumber NumberKind = iota
	// Integer: digits, or 1-3 digits followed by ",ddd" groups
	// ("42", "15,200").
	Integer
	// Real: digits, a point, digits, with no thousands separators
	// ("3.5").
	Real
	// Money: "$", at most one space, then an integer of either form
	// with an optional fraction ("$15,200", "$ 9.99", "$1,234.5").
	Money
)

// ScanNumber reports which kind of number s spells, in one pass over
// its bytes. s must already be trimmed: a leading or trailing space
// makes it NotNumber. The kinds are disjoint (only money starts with
// '$', and only a real has a point without one), so a caller testing
// monetary, then real, then integer gets its answer from one scan.
//
// The accepted language is exactly that of the regular expressions the
// scanner replaced (kept in the tests as its oracle):
//
//	money   ^\$\s?\d{1,3}(,\d{3})*(\.\d+)?$|^\$\s?\d+(\.\d+)?$
//	integer ^\d{1,3}(,\d{3})+$|^\d+$
//	real    ^\d+\.\d+$
//
// where \d is an ASCII digit and \s one of '\t', '\n', '\f', '\r', ' '.
func ScanNumber(s string) NumberKind {
	i, money := 0, false
	if i < len(s) && s[i] == '$' {
		money = true
		i++
		if i < len(s) && isRESpace(s[i]) {
			i++
		}
	}
	start := i
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	if i == start {
		return NotNumber
	}
	grouped := false
	if i < len(s) && s[i] == ',' {
		if i-start > 3 {
			return NotNumber
		}
		for i < len(s) && s[i] == ',' {
			if i+4 > len(s) || !isDigit(s[i+1]) || !isDigit(s[i+2]) || !isDigit(s[i+3]) {
				return NotNumber
			}
			i += 4
		}
		if i < len(s) && isDigit(s[i]) {
			return NotNumber // a group of more than three digits
		}
		grouped = true
	}
	frac := false
	if i < len(s) && s[i] == '.' {
		i++
		fs := i
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		if i == fs {
			return NotNumber
		}
		frac = true
	}
	switch {
	case i != len(s):
		return NotNumber
	case money:
		return Money
	case frac && grouped:
		return NotNumber // "1,234.5": reals take no separators
	case frac:
		return Real
	default:
		return Integer
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isRESpace is the regular-expression class \s: ASCII space, tab,
// newline, form feed and carriage return (not vertical tab).
func isRESpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}
