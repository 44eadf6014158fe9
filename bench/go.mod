module distauction/bench

go 1.24

require distauction v0.0.0

replace distauction => ../
