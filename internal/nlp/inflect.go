package nlp

import "strings"

// irregularPlurals maps singular forms to irregular plurals. The reverse
// map is derived at init time for Singularize.
var irregularPlurals = map[string]string{
	"person":      "people",
	"man":         "men",
	"woman":       "women",
	"child":       "children",
	"foot":        "feet",
	"tooth":       "teeth",
	"goose":       "geese",
	"mouse":       "mice",
	"datum":       "data",
	"medium":      "media",
	"index":       "indices",
	"matrix":      "matrices",
	"analysis":    "analyses",
	"basis":       "bases",
	"criterion":   "criteria",
	"phenomenon":  "phenomena",
	"life":        "lives",
	"leaf":        "leaves",
	"shelf":       "shelves",
	"half":        "halves",
	"wife":        "wives",
	"knife":       "knives",
	"salesperson": "salespeople",
	"bus":         "buses",
	"gas":         "gases",
}

// invariantNouns have identical singular and plural forms.
var invariantNouns = map[string]bool{
	"series": true, "species": true, "aircraft": true, "equipment": true,
	"information": true, "news": true, "staff": true, "fish": true,
	"deer": true, "sheep": true, "software": true, "real estate": true,
	"feet": true, // "square feet" is already plural in measurement labels
}

var irregularSingulars map[string]string

func init() {
	irregularSingulars = make(map[string]string, len(irregularPlurals))
	for s, p := range irregularPlurals {
		irregularSingulars[p] = s
	}
}

func isVowel(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// Pluralize returns the English plural of a (lower-case) noun or noun
// phrase. For multi-word phrases the head noun — the last word — is
// pluralized, which is the behaviour the paper's extraction patterns need
// ("departure city" -> "departure cities").
func Pluralize(noun string) string {
	noun = strings.TrimSpace(noun)
	if noun == "" {
		return noun
	}
	if i := strings.LastIndexByte(noun, ' '); i >= 0 {
		return noun[:i+1] + Pluralize(noun[i+1:])
	}
	lower := strings.ToLower(noun)
	if invariantNouns[lower] {
		return noun
	}
	if p, ok := irregularPlurals[lower]; ok {
		return p
	}
	switch {
	case strings.HasSuffix(lower, "s"), strings.HasSuffix(lower, "x"),
		strings.HasSuffix(lower, "z"), strings.HasSuffix(lower, "ch"),
		strings.HasSuffix(lower, "sh"):
		return noun + "es"
	case strings.HasSuffix(lower, "y") && len(lower) > 1 && !isVowel(lower[len(lower)-2]):
		return noun[:len(noun)-1] + "ies"
	case strings.HasSuffix(lower, "o") && len(lower) > 1 && !isVowel(lower[len(lower)-2]):
		// tomato -> tomatoes; but common -o loanwords take -s (photo, auto).
		switch lower {
		case "photo", "auto", "piano", "memo", "zero", "pro", "condo", "studio", "radio", "video", "logo":
			return noun + "s"
		}
		return noun + "es"
	default:
		return noun + "s"
	}
}

// Singularize returns the singular of an English plural noun or noun
// phrase (last word only for phrases). Words that do not look plural are
// returned unchanged.
func Singularize(noun string) string {
	noun = strings.TrimSpace(noun)
	if noun == "" {
		return noun
	}
	if i := strings.LastIndexByte(noun, ' '); i >= 0 {
		return noun[:i+1] + Singularize(noun[i+1:])
	}
	lower := strings.ToLower(noun)
	if invariantNouns[lower] {
		return noun
	}
	if s, ok := irregularSingulars[lower]; ok {
		return s
	}
	switch {
	case strings.HasSuffix(lower, "ies") && len(lower) > 3:
		return noun[:len(noun)-3] + "y"
	case strings.HasSuffix(lower, "ves") && len(lower) > 3:
		return noun[:len(noun)-3] + "f"
	case strings.HasSuffix(lower, "xes"), strings.HasSuffix(lower, "ches"),
		strings.HasSuffix(lower, "shes"), strings.HasSuffix(lower, "sses"),
		strings.HasSuffix(lower, "zes"), strings.HasSuffix(lower, "oes"):
		return noun[:len(noun)-2]
	case strings.HasSuffix(lower, "ss"), strings.HasSuffix(lower, "us"),
		strings.HasSuffix(lower, "is"):
		// class, status, basis — not plural -s.
		return noun
	case strings.HasSuffix(lower, "s") && len(lower) > 1:
		return noun[:len(noun)-1]
	default:
		return noun
	}
}

// LooksPlural reports whether a word is plausibly an English plural.
func LooksPlural(word string) bool {
	lower := strings.ToLower(word)
	if _, ok := irregularSingulars[lower]; ok {
		return true
	}
	if invariantNouns[lower] {
		return true
	}
	return looksRegularPlural(lower)
}

// looksRegularPlural is LooksPlural's suffix rule for a lower-case word
// on neither the irregular nor the invariant list.
func looksRegularPlural(lower string) bool {
	if strings.HasSuffix(lower, "ss") || strings.HasSuffix(lower, "us") || strings.HasSuffix(lower, "is") {
		return false
	}
	return strings.HasSuffix(lower, "s")
}
