package bench

import (
	"fmt"
	"sort"
)

// Runner regenerates one paper artefact.
type Runner func(Config) ([]Table, error)

// Experiments maps experiment names (as accepted by cmd/experiments -fig)
// to their runners.
func Experiments() map[string]Runner {
	return map[string]Runner{
		"table1": Table1,
		"3":      Fig3,
		"4":      Fig4,
		"5":      Fig5,
		"6":      Fig6,
		"7":      Fig7,
		"8":      Fig8,
		"9":      Fig9,
		"10":     Fig10,
		"11":     Fig11,
		"sec2c":  Sec2C,
	}
}

// ExperimentNames lists valid experiment names in presentation order.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments()))
	for name := range Experiments() {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// table1 first, then numeric.
		if names[i] == "table1" {
			return true
		}
		if names[j] == "table1" {
			return false
		}
		return len(names[i]) < len(names[j]) || (len(names[i]) == len(names[j]) && names[i] < names[j])
	})
	return names
}

// Run executes the named experiment.
func Run(name string, cfg Config) ([]Table, error) {
	r, ok := Experiments()[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (want one of %v)", name, ExperimentNames())
	}
	return r(cfg)
}
