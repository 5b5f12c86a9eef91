from regretctl import kernels

# The public kernels. perfbench's tracer wraps each of these module attributes
# by name and reads their arguments, so renaming or removing one breaks it.
PUBLIC_KERNELS = (
    "lqr_backward",
    "hinf_backward",
    "forward_kalman",
    "backward_kalman",
    "regret_phat_backward",
    "rollout_feedback",
    "rollout_regret",
)


def test_public_kernel_surface():
    for name in PUBLIC_KERNELS:
        assert callable(vars(kernels).get(name)), name
    assert kernels.BACKEND == "numpy"
