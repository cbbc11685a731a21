package nlp

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// lowerInputs mix ASCII capitals, Unicode letters whose lower case is
// longer or shorter in UTF-8 than their upper case, letters without
// case, and invalid UTF-8.
var lowerInputs = []string{
	"Departure City", "Airlines such as Air Canada, Delta and United.",
	"ȺȾ Ⱥpple", "İstanbul and KELVIN", "ΣΟΦΟΣ Σοφία", "München Köln",
	"日本語 Tokyo テキスト", "bad\xffUTF8 Word", "\xc3\x28Mixed",
	"ALL CAPS SENTENCE WITH MANY WORDS IN IT",
}

func TestAppendLowerMatchesToLower(t *testing.T) {
	for _, in := range lowerInputs {
		if got, want := string(AppendLower(nil, in)), strings.ToLower(in); got != want {
			t.Errorf("AppendLower(%q) = %q, want %q", in, got, want)
		}
	}
	f := func(s string) bool { return string(AppendLower([]byte("x"), s)) == "x"+strings.ToLower(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestToLowerIdempotent pins what single-lookup tagging relies on: a
// token's Norm is already its own lower case, so the plural lists can
// be consulted on Norm without lowering it again.
func TestToLowerIdempotent(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); unicode.ToLower(l) != l {
			t.Fatalf("ToLower(%U) = %U, which lowers again to %U", r, l, unicode.ToLower(l))
		}
	}
}
