package timeseries

import (
	"math"
	"time"
)

// SeasonalProfile parameterizes a synthetic KPI stream with the diurnal and
// weekly structure typical of CDN traffic: a base level, a day-cycle
// amplitude peaking in the evening, a weekend uplift and multiplicative
// noise.
type SeasonalProfile struct {
	// Base is the mean traffic level.
	Base float64
	// DailyAmplitude scales the sinusoidal day cycle relative to Base.
	DailyAmplitude float64
	// WeekendBoost multiplies weekend samples (1 = no effect).
	WeekendBoost float64
	// NoiseStd is the standard deviation of multiplicative Gaussian
	// noise (relative to the noiseless value).
	NoiseStd float64
	// PeakHour is the hour of day (0-23) at which the day cycle peaks.
	PeakHour float64
}

// DefaultProfile returns a profile resembling residential CDN traffic:
// evening peak, mild weekend uplift, a few percent noise.
func DefaultProfile(base float64) SeasonalProfile {
	return SeasonalProfile{
		Base:           base,
		DailyAmplitude: 0.6,
		WeekendBoost:   1.15,
		NoiseStd:       0.03,
		PeakHour:       21,
	}
}

// ValueAt returns the noiseless profile value at time ts.
func (p SeasonalProfile) ValueAt(ts time.Time) float64 {
	hour := float64(ts.Hour()) + float64(ts.Minute())/60
	phase := 2 * math.Pi * (hour - p.PeakHour) / 24
	v := p.Base * (1 + p.DailyAmplitude*math.Cos(phase))
	if wd := ts.Weekday(); wd == time.Saturday || wd == time.Sunday {
		v *= p.WeekendBoost
	}
	if v < 0 {
		v = 0
	}
	return v
}
