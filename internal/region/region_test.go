package region

import "testing"

// TestPlanExhaustive checks every grow of 1–12 blocks from 0–12 blocks at
// region widths 1–4.
func TestPlanExhaustive(t *testing.T) {
	for rb := 1; rb <= 4; rb++ {
		for oldLen := 0; oldLen <= 12; oldLen++ {
			for grow := 1; grow <= 12; grow++ {
				newLen := oldLen + grow
				steps := Plan(oldLen, newLen, rb)
				if len(steps) == 0 || steps[0].Lo != oldLen || steps[len(steps)-1].Hi != newLen {
					t.Fatalf("Plan(%d,%d,%d) = %v: does not span [%d,%d)", oldLen, newLen, rb, steps, oldLen, newLen)
				}
				for i, s := range steps {
					if s.Lo/rb != (s.Hi-1)/rb {
						t.Fatalf("Plan(%d,%d,%d) step %d = %v spans two regions", oldLen, newLen, rb, i, s)
					}
					if i < len(steps)-1 && s.Hi%rb != 0 {
						t.Fatalf("Plan(%d,%d,%d) step %d = %v ends off a region boundary", oldLen, newLen, rb, i, s)
					}
				}
				if want := Count(newLen, rb) - oldLen/rb; len(steps) != want {
					t.Fatalf("Plan(%d,%d,%d) has %d steps, want %d", oldLen, newLen, rb, len(steps), want)
				}
				if err := Validate(steps, newLen); err != nil {
					t.Fatalf("Validate(Plan(%d,%d,%d)): %v", oldLen, newLen, rb, err)
				}
				if Validate(steps, newLen+1) == nil {
					t.Fatalf("Validate(Plan(%d,%d,%d), %d) accepted a plan short of the table", oldLen, newLen, rb, newLen+1)
				}
			}
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []Step
	}{
		{"empty step", []Step{{Lo: 2, Hi: 2}, {Lo: 2, Hi: 4}}},
		{"past the table", []Step{{Lo: 2, Hi: 5}}},
		{"gap", []Step{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 4}}},
		{"overlap", []Step{{Lo: 0, Hi: 3}, {Lo: 2, Hi: 4}}},
		{"short", []Step{{Lo: 0, Hi: 3}}},
	} {
		if Validate(tc.steps, 4) == nil {
			t.Errorf("%s: Validate(%v, 4) accepted", tc.name, tc.steps)
		}
	}
}
