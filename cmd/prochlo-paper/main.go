// Command prochlo-paper reproduces the paper's evaluation, one subcommand
// per table or figure:
//
//	prochlo-paper stashbench  Tables 1 and 2: Stash Shuffle scenarios and a measured run
//	prochlo-paper shufflecmp  §4.1.3: the oblivious-shuffle algorithms compared
//	prochlo-paper vocab       Figure 5 (words recovered), or Table 3 with -time
//	prochlo-paper perms       Table 4: pages recovered per permission feature
//	prochlo-paper suggest     §5.4: next-view prediction from disjoint tuples
//	prochlo-paper flix        Table 5: collaborative-filtering RMSE
//
// Each subcommand takes its own flags (prochlo-paper vocab -h lists them)
// and prints its table with the paper's values beside the measured ones.
package main

import (
	"fmt"
	"os"
)

var commands = map[string]func(args []string) error{
	"stashbench": runStashbench,
	"shufflecmp": runShufflecmp,
	"vocab":      runVocab,
	"perms":      runPerms,
	"suggest":    runSuggest,
	"flix":       runFlix,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: prochlo-paper stashbench|shufflecmp|vocab|perms|suggest|flix [flags]")
		os.Exit(2)
	}
	if err := commands[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "prochlo-paper %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}
