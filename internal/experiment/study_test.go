package experiment

import (
	"slices"

	"conscale/internal/des"
)

// shrink is s with every cell's run length and peak population set, as
// a shorter run of the same study.
func shrink(s Study, duration des.Time, users int) Study {
	s.Cells = slices.Clone(s.Cells)
	for i := range s.Cells {
		s.Cells[i].Config.Duration = duration
		s.Cells[i].Config.MaxUsers = users
	}
	return s
}

// only is s with just the cells keyed key.
func only(s Study, key string) Study {
	s.Cells = slices.DeleteFunc(slices.Clone(s.Cells), func(c Cell) bool { return c.Key != key })
	return s
}
