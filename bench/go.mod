module starvation/bench

go 1.22

require starvation v0.0.0

replace starvation => ../
