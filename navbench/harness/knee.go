package harness

// Step is one rate tried by the capacity search.
type Step struct {
	Rate float64 `json:"rate"`
	Pass bool    `json:"pass"`
}

// Knee is the outcome of a capacity search: Rate is the last offered rate
// that passed before the first failure. LowerBound is set when nothing
// failed up to the ceiling, so the true knee lies at or above Rate.
type Knee struct {
	Rate       float64 `json:"rate"`
	LowerBound bool    `json:"lowerBound"`
	Steps      []Step  `json:"steps"`
}

// FindKnee brackets the capacity knee. It escalates the rate from start,
// doubling up to ceiling, until a step fails; it then bisects refine
// times between the last pass and the first failure. A pass above a
// failure never raises the knee: the search stops escalating at the first
// failure, and a bisection step is only ever placed below the lowest
// failure seen. If the very first step fails the bracket is (0, start).
func FindKnee(step func(rate float64) bool, start, ceiling float64, refine int) Knee {
	var k Knee
	try := func(rate float64) bool {
		ok := step(rate)
		k.Steps = append(k.Steps, Step{Rate: rate, Pass: ok})
		return ok
	}
	pass, fail := 0.0, 0.0
	for rate := start; ; rate *= 2 {
		if rate > ceiling {
			rate = ceiling
		}
		if !try(rate) {
			fail = rate
			break
		}
		pass = rate
		if rate >= ceiling {
			k.Rate, k.LowerBound = pass, true
			return k
		}
	}
	for i := 0; i < refine; i++ {
		mid := (pass + fail) / 2
		if try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	k.Rate = pass
	return k
}
