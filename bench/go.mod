module kwsearch/bench

go 1.22

require kwsearch v0.0.0

replace kwsearch => ../
