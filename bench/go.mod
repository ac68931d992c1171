module tbwf/bench

go 1.24

require tbwf v0.0.0

replace tbwf => ../
